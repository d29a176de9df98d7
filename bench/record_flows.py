"""Write bench/flow_record.json: the exact flow data of every catalog map.

The benchmark's correctness gates compare each computed flow with ``==``
against this record, which was made from the seed program.  Re-record only
in a change that is meant to alter flow data, and say so in that change.

Run from the repository root:  python3 bench/record_flows.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from boxflow.catalog import builtin_catalog  # noqa: E402

from workloads import FLOW_RECORD, encode_flow, encode_twodim, flow_data  # noqa: E402


def main() -> None:
    record = {"compute_flow": {}, "twodim_flow": {}}
    for name, entry in builtin_catalog().items():
        _, res, two = flow_data(entry)
        record["compute_flow"][name] = encode_flow(res)
        if two is not None:
            record["twodim_flow"][name] = encode_twodim(two)
    with open(FLOW_RECORD, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

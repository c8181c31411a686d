"""Run the default experiment battery through the CLI and print the summary.

Writes battery_report.json and battery_summary.txt under out/battery/.
"""
import json
import sys
import tempfile
from pathlib import Path

from mongelab.cli import main as cli_main


def main():
    out = Path("out/battery")
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump({"battery": "default", "seed": 0}, fh)
        cfg = fh.name
    code = cli_main(["battery", "--config", cfg, "--out", str(out)])
    print((out / "battery_summary.txt").read_text())
    print(f"exit code: {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())

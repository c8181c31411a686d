"""Run the default experiment battery through the CLI and print the summary.

Writes its config to out/battery_config.json, and battery_report.json and
battery_summary.txt under out/battery/.
"""
import json
import sys
from pathlib import Path

from mongelab.cli import main as cli_main


def main():
    out = Path("out/battery")
    out.parent.mkdir(parents=True, exist_ok=True)
    cfg = out.parent / "battery_config.json"
    cfg.write_text(json.dumps({"battery": "default", "seed": 0}), encoding="utf-8")
    code = cli_main(["battery", "--config", str(cfg), "--out", str(out)])
    print((out / "battery_summary.txt").read_text())
    print(f"exit code: {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""README's scenario and library examples parse and run as shown, and it
documents the run log's columns."""

import re
from pathlib import Path

from meshless_growth import LogRecord, parse_scenario_text

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang: str) -> str:
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.S | re.M)
    assert len(blocks) == 1, f"README has {len(blocks)} {lang} blocks"
    return blocks[0]


def test_scenario_example_parses():
    scenario = parse_scenario_text(_block("ini"), name="readme")
    assert scenario.output_dir == "out/my-run"


def test_library_example_runs_without_diverging():
    namespace = {}
    exec(compile(_block("python"), "README.md", "exec"), namespace)
    assert namespace["traj"].diverged is None


def test_run_log_columns_are_documented_in_order():
    # the header line, then one definition bullet per column or pair of columns
    entry = re.search(r"^- `run_log\.csv` - .*\n  `(.*)`\n((?:  - .*\n(?:    .*\n)*)+)", README,
                      flags=re.M)
    assert entry is not None, "README has no run_log.csv entry with its header"
    header, bullets = entry.groups()
    assert header.split(",") == list(LogRecord._fields)
    defined = [name for lead in re.findall(r"^  - (.*?):", bullets, flags=re.M)
               for name in re.findall(r"`(\w+)`", lead)]
    assert defined == list(LogRecord._fields)

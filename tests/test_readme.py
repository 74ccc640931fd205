"""README's scenario and library examples parse and run as shown."""

import re
from pathlib import Path

from meshless_growth import parse_scenario_text

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

"""The README's library example runs as written, and its CLI lines parse."""
import math
import re
import shlex
from pathlib import Path

from particleflow.cli import build_parser
from particleflow.config import make_config, parse_config_file

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_and_tracks_posterior(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    kl = float(capsys.readouterr().out.strip())
    # the standard normal prior is at KL of several hundred from the step-50
    # posterior; a flow that tracks it ends within a few nats
    assert math.isfinite(kl) and 0.0 < kl < 10.0


def test_readme_cli_lines_parse():
    text = README.read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S)
             for line in block.splitlines() if line.startswith("particleflow ")]
    assert len(lines) >= 7
    # parse only: an unknown flag exits, and a committed config file must
    # hold only keys its experiment reads
    for line in lines:
        args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
        if getattr(args, "config", None):
            make_config(args.command, parse_config_file(str(README.parent / args.config), args.command))

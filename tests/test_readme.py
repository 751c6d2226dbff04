"""The README's library example runs as written."""
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs_and_tracks_posterior(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    kl = float(capsys.readouterr().out.strip())
    # the standard normal prior is at KL of several hundred from the step-50
    # posterior; a flow that tracks it ends within a few nats
    assert math.isfinite(kl) and 0.0 < kl < 10.0

"""README's Python example runs as written and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    elapsed, resources = out.getvalue().split(" ", 1)
    assert round(float(elapsed), 4) == 0.0191  # the comment's "0.0191 s"
    assert resources.startswith("ResourceCount(n_cnot=2, n_ebit=1,")  # "2 CNOTs / 1 ebit"

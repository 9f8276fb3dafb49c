"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under the README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["report"].max_residual <= 1e-12
    b, c, d = namespace["b"], namespace["c"], namespace["d"]
    assert -1.0 < b < c < d < 1.0
    assert {type(v) for v in namespace["params"].flat()} == {float}
    assert namespace["table"].below

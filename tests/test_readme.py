"""The README's Library example runs, and its comments state what it returns."""

import re

from conftest import PROBLEMS

README = PROBLEMS.parent / "README.md"


def test_library_example_runs_as_commented():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    ns = {}
    exec(compile(blocks[0], "README.md", "exec"), ns)
    nef, dom, cert, table = ns["nef"], ns["dom"], ns["cert"], ns["table"]
    assert nef.walls == ((0, -1), (2, 3))
    assert nef.cone.rays == ((1, 0), (3, 4))
    assert dom.rays == ((1, 0), (1, 1))
    assert cert.ok
    assert [set(e.members) for e in table.entries] == [{(0, -1), (2, 3)}]

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_measures_a_range():
    # the README's python block, run as written; both ranges must be far from 0
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    assert scope["result"].delta > 1e-3
    assert scope["result2"].delta > 1e-3
    assert scope["result2"].converged

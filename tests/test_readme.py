"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_builds_a_branching_tree(capsys):
    namespace = {}
    exec(library_example(), namespace)
    tree = namespace["tree"]
    assert tree.children
    assert all(reel.indices for reel in namespace["rs"].enumerate_reels(tree))
    assert "pruned_out" not in capsys.readouterr().out

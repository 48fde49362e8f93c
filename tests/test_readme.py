"""The README's library example runs as printed."""
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs(capsys, monkeypatch, tmp_path):
    """The README's one python block runs, prints the rank it names in its
    comment, and writes no file."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    rank = re.search(r"print\(T\.rank\)\s+# (\d+)", block).group(1)
    assert capsys.readouterr().out == rank + "\n"
    assert list(tmp_path.iterdir()) == []

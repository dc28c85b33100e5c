import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps its line


# a comment line
def area(r):
    """Function docstring."""

    text = """a string that is
    not a docstring"""
    return math.pi * (
        r**2
    )
'''


def test_counts_code_lines_of_a_sample(tmp_path, capsys):
    # import, def, the two lines of the string, and the three of the return
    assert code_lines.code_lines(SAMPLE) == 7
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["empty", "0", "sample", "7", "total", "7"]

"""The README's library quickstart runs as a doctest, so the documented
public API cannot drift from the code."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    section = README.read_text().split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quickstart_examples_pass():
    test = doctest.DocTestParser().get_doctest(
        _quickstart(), {}, "README quickstart", str(README), 0
    )
    report = []
    runner = doctest.DocTestRunner()
    results = runner.run(test, out=report.append)
    assert results.attempted == len(test.examples) > 0
    assert results.failed == 0, "".join(report)

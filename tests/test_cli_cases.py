"""Every row of tests/cli_cases.py, run in process through ``cgf.cli.main``
under the row's timeout.  A row that ran under another test id before the
table (``Row.was``) runs under that id instead, in tests/test_cli.py."""

import pytest

from cli_cases import ROWS, in_process, run
from conftest import within

IN_PROCESS = in_process(within)


def run_rows(rows, tmp_path):
    """Run ``rows`` in order, each with a fresh ``{tmp}``."""
    for i, row in enumerate(rows):
        tmp = tmp_path / str(i)
        tmp.mkdir()
        run(row, IN_PROCESS, tmp)


@pytest.mark.parametrize("row", [row for row in ROWS if row.was is None],
                         ids=lambda row: row.name)
def test_row(row, tmp_path):
    run(row, IN_PROCESS, tmp_path)

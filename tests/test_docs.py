"""The README and --help agree with the code they describe."""

import ast
import re
from dataclasses import fields
from pathlib import Path

from flowcast.cli import cli_main
from flowcast.config import SETTINGS, RunConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title):
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_config_table_matches_settings():
    rows = [line for line in _section("Configuration").splitlines() if line.startswith("| `")]
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
    documented = [(key.strip("`"), flag.strip("`")) for key, flag, *_ in cells]
    expected = [(setting.key, setting.flag) for setting in SETTINGS] + [("pcu.<class>", "-")]
    assert documented == expected


def test_readme_config_table_defaults_match_the_declared_ones():
    rows = [line for line in _section("Configuration").splitlines() if line.startswith("| `")]
    documented = {key.strip("`"): default for key, _, default, *_ in
                  ([cell.strip() for cell in row.strip("|").split("|")] for row in rows)}
    declared = {f.name: f.default for f in fields(RunConfig)}
    # A setting with no default is estimated from the series or, for out_dir, has none.
    unset = {"q": "estimated", "r": "estimated", "out_dir": "-"}
    for setting in SETTINGS:
        cell, default = documented[setting.key], declared[setting.field]
        if default is None:
            assert cell == unset[setting.key], setting.key
        elif isinstance(default, str):
            assert cell == f"`{default}`", setting.key
        else:
            assert float(cell.strip("`")) == default, setting.key


def test_run_help_lists_every_setting_flag(capsys):
    assert cli_main(["run", "--help"]) == 0
    help_text = capsys.readouterr().out
    for setting in SETTINGS:
        assert setting.flag in help_text
    assert "--percent-denominator {forecast,observed}" in help_text
    assert "--evaluate-mode {predicted,filtered}" in help_text


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    code = re.search(r"```python\n(.*?)```", _section("Library use"), re.DOTALL).group(1)
    assert cli_main(["simulate", "--preset", "steady", "--out", str(tmp_path / "counts.csv")]) == 0
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    mape_line, forecast_line = capsys.readouterr().out.splitlines()
    assert float(mape_line.split()[0]) >= 0.0
    assert len(ast.literal_eval(forecast_line)) == 3

"""The README's examples run, and the options it names exist."""

import re
from pathlib import Path

import pytest

from netmoment import estimation
from netmoment.cli import main
from netmoment.dataio import _STUDY_KEYS, parse_study_config

README = (Path(__file__).parent.parent / "README.md").read_text()
FLAG = r"(?<![\w-])--[a-z][a-z-]*"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def test_python_blocks_run_in_order():
    blocks = _blocks("python")
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["result"].converged


def test_study_config_example_parses(tmp_path):
    (block,) = _blocks("ini")
    path = tmp_path / "study.cfg"
    path.write_text(block)
    specs, replicates, _ = parse_study_config(str(path))
    assert [spec.n for spec in specs] == [40, 80]
    assert replicates == 200


def test_named_flags_exist(capsys):
    helps = ""
    for subcommand in ("fit", "simulate", "mc-study"):
        with pytest.raises(SystemExit):
            main([subcommand, "--help"])
        helps += capsys.readouterr().out
    named = set(re.findall(FLAG, README[README.index("## Command line"):]))
    assert len(named) >= 15
    assert named <= set(re.findall(FLAG, helps))


def test_named_study_keys_exist():
    start = README.index("`family`, `n_grid`, `replicates`, and `gamma_star` are required")
    paragraph = README[start:README.index("Grid point", start)]
    keys = set(re.findall(r"`([a-z_]+)`", paragraph))
    assert len(keys) >= 15
    assert keys <= set(_STUDY_KEYS)


def test_solver_constants_match_the_code():
    assert f"after {estimation._CG_MAX_STEPS} CG steps" in README
    assert f"max({estimation._CG_RTOL}, min({estimation._CG_FORCING_CAP}, r/r₁))" in README

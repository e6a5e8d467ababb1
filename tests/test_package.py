"""The package namespace: what `import uwloc` exposes."""

import re
from pathlib import Path

import uwloc
from uwloc import bounds, errors, localize

README = Path(__file__).resolve().parent.parent / "README.md"

# Test references that no command reaches, by the module they live in.
NOT_EXPORTED = {
    bounds: ("BlockForm", "block_diagonalize", "build_covariance", "csd_exact",
             "eigenvalues_closed_form", "snr_limits"),
    errors: ("StructureError",),
    localize: ("concentrated_loglikelihood",),
}


def library_use_imports() -> list[str]:
    """The names the README's "Library use" example imports from uwloc."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    found = re.findall(r"from uwloc import (\([^)]*\)|.*)", section)
    return [name.strip(" \n()") for names in found for name in names.split(",")
            if name.strip(" \n()")]


def test_exposes_what_the_readme_imports():
    names = library_use_imports()
    assert "load_config" in names and "run_experiment" in names
    assert [name for name in names if not hasattr(uwloc, name)] == []


def test_does_not_re_export_test_references():
    for module, names in NOT_EXPORTED.items():
        assert all(hasattr(module, name) for name in names)
        assert [name for name in names if hasattr(uwloc, name)] == []

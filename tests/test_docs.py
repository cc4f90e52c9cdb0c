"""Documentation health: README doctests and markdown link integrity.

CI runs this as the docs job — the README quickstart must stay
executable, and no markdown file may link to a path that does not
exist in the repository.
"""

import doctest
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: every markdown file whose links we guarantee
DOC_FILES = sorted(
    list(REPO.glob("*.md")) + list((REPO / "docs").glob("*.md"))
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def test_readme_doctests():
    """Every ``>>>`` block in the README must run and match."""
    results = doctest.testfile(
        str(REPO / "README.md"),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert results.attempted > 0, "README lost its doctest examples"
    assert results.failed == 0


#: pages the docs set must always contain, with the sections we promise
REQUIRED_PAGES = {
    "docs/PRECISION.md": (
        "## The switching rule",
        "## Composition with robust escalation",
        "## Mixed-storage bases",
        "## Worked example",
    ),
    "docs/ARCHITECTURE.md": (
        "Adaptive precision data flow",
        "## Kernel dispatch: the numpy and jit backends",
        "## One description of a solve",
    ),
    "docs/EXPERIMENTS.md": (
        "--storage adaptive",
        "### `--backend` — numpy vs jit-compiled kernels",
        "### `--preconditioner` — the compressed preconditioning tier",
    ),
    "docs/PRECONDITIONING.md": (
        "## Right preconditioning in Fig. 1",
        "## The factor-storage ladder",
        "## Stagnating scenarios",
        "## Bench tier",
    ),
}

#: page -> markdown files that must link to it
REQUIRED_INBOUND_LINKS = {
    "docs/PRECISION.md": ("README.md", "docs/ARCHITECTURE.md"),
    "docs/PRECONDITIONING.md": (
        "README.md",
        "docs/ARCHITECTURE.md",
        "docs/EXPERIMENTS.md",
    ),
}


@pytest.mark.parametrize("page", sorted(REQUIRED_PAGES), ids=str)
def test_required_page_exists_with_sections(page):
    """Key documentation pages exist and keep their promised sections."""
    path = REPO / page
    assert path.exists(), f"{page} is missing"
    text = path.read_text()
    for heading in REQUIRED_PAGES[page]:
        assert heading in text, f"{page} lost its '{heading}' section"


@pytest.mark.parametrize("page", sorted(REQUIRED_INBOUND_LINKS), ids=str)
def test_required_page_is_linked(page):
    """Key pages are reachable from the places readers start at."""
    name = Path(page).name
    for source in REQUIRED_INBOUND_LINKS[page]:
        text = (REPO / source).read_text()
        assert name in text, f"{source} no longer links to {page}"


@pytest.mark.parametrize("md", DOC_FILES, ids=lambda p: str(p.relative_to(REPO)))
def test_no_dead_relative_links(md):
    """Relative links in markdown must point at existing files."""
    dead = []
    for target in _LINK.findall(md.read_text()):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (md.parent / path).resolve()
        if not resolved.exists():
            dead.append(target)
    assert not dead, f"dead links in {md.name}: {dead}"


#: ``--flag {a,b,c}`` / ``name={a,b,c}`` as the docs quote an option's values
_ENUMERATION = re.compile(r"(?:--([a-z-]+) |\b([a-z_]+)=)\{([a-z0-9_,]+)\}")


@pytest.mark.parametrize("page", ["docs/ARCHITECTURE.md", "docs/EXPERIMENTS.md"])
def test_quoted_option_values_are_the_owners(page):
    """An option enumeration quoted in the docs is its owner's tuple,
    value for value and in order — the same tuples ``SolveOptions``
    checks against and the CLI takes its ``choices`` from."""
    from repro.jit.dispatch import BACKENDS
    from repro.solvers import PREC_STORAGES, PRECONDITIONERS
    from repro.solvers.basis import BASIS_MODES
    from repro.sparse.engine import SPMV_FORMATS
    from repro.sparse.suite import SCALES

    owners = {
        "spmv_format": SPMV_FORMATS, "basis_mode": BASIS_MODES,
        "backend": BACKENDS, "preconditioner": PRECONDITIONERS,
        "prec_storage": PREC_STORAGES, "scale": SCALES,
    }
    quoted = [
        ((flag or name).replace("-", "_"), tuple(values.split(",")))
        for flag, name, values in _ENUMERATION.findall((REPO / page).read_text())
    ]
    checked = [(name, values) for name, values in quoted if name in owners]
    assert len(checked) >= 2, f"{page}: the enumeration pattern matches nothing"
    for name, values in checked:
        assert values == owners[name], f"{page} quotes {name} as {values}"

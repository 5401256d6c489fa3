"""README's Contracts list: each promise names the tests that pin it, and
each named test is collected, so a renamed or deleted test cannot leave a
promise unchecked."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NODE = r"tests/\w+\.py::[\w:\[\]-]+"
NODE_ID = re.compile(f"`({NODE})`")


def contracts(readme: str) -> list[str]:
    """The list items of the one ``## Contracts`` section of ``readme``."""
    sections = [s for s in re.split(r"^## ", readme, flags=re.M) if s.startswith("Contracts\n")]
    assert len(sections) == 1, f"README has {len(sections)} Contracts sections"
    return re.split(r"^- ", sections[0], flags=re.M)[1:]


def collected() -> set[str]:
    """Every node id the suite collects, parametrized ones also without
    their parameters."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    ids = [line for line in proc.stdout.splitlines() if line.startswith("tests/")]
    assert ids, proc.stdout + proc.stderr
    return set(ids) | {i.split("[", 1)[0] for i in ids}


def test_every_contract_names_collected_tests():
    items = contracts((ROOT / "README.md").read_text())
    assert items
    ids = collected()
    for item in items:
        named = NODE_ID.findall(item)
        assert named, f"a contract names no test: {item!r}"
        missing = [node for node in named if node not in ids]
        assert not missing, f"not collected: {missing}"


def test_ci_names_its_tests_by_contract_node_ids():
    named = {node for item in contracts((ROOT / "README.md").read_text())
             for node in NODE_ID.findall(item)}
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    in_ci = set(re.findall(NODE, workflow))
    assert in_ci and in_ci <= named, sorted(in_ci - named)

"""The mutation script's anchors (tests/mutants.py) stay in the source.

An anchor that no longer occurs exactly once in its module stops the
script at that mutant, about nine minutes into its run; this catches it in
tier-1 instead.
"""

from mutants import BLIND_SPOTS, MUTANTS, ROOT


def test_every_mutant_anchor_occurs_once_in_its_module():
    src = ROOT / "src" / "cmlab"
    stale = [(module, old) for _, module, old, _ in MUTANTS + BLIND_SPOTS
             if (src / module).read_text(encoding="utf-8").count(old) != 1]
    assert stale == []

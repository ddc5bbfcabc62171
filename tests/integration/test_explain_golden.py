"""Golden-file and CLI tests for ``experiments explain``.

The Fig. 2 walkthrough is fully deterministic (static driver, sorted
iteration everywhere), so its rendered causal chains are pinned
byte-for-byte in ``tests/golden/explain_fig2.txt`` (HBH) and
``tests/golden/explain_fig2_reunite.txt`` (REUNITE) — the same files
the CI explain job ``cmp``s against.  If an intentional change to the
tracing vocabulary or the renderer moves the output, regenerate with::

    PYTHONPATH=src python -m repro.experiments explain \
        > tests/golden/explain_fig2.txt
    PYTHONPATH=src python -m repro.experiments explain --protocols reunite \
        > tests/golden/explain_fig2_reunite.txt
"""

from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments.explain import parse_query, run_explain

GOLDEN = Path(__file__).parent.parent / "golden" / "explain_fig2.txt"
REUNITE_GOLDEN = GOLDEN.with_name("explain_fig2_reunite.txt")


class TestFig2Golden:
    def test_matches_the_committed_golden_file(self):
        text, code = run_explain()
        assert code == 0
        assert text == GOLDEN.read_text()

    def test_reproduces_the_full_causal_chain(self):
        """The ISSUE acceptance: join -> tree -> fusion, end to end."""
        text, _ = run_explain()
        # Join chain: r13's join intercepted twice on its way up.
        assert ("why 0.source-mft[1]: 13.join(13)@t=10 "
                "[intercepted by 3 (join rule 3)]" in text)
        # Tree chain: the source's tree regenerated at branching node 1.
        assert "tree rule 1" in text
        # Fusion chain: node 3 adopted, its parent marked the old entry.
        assert "fusion: marked [11], kept 3" in text
        assert "oracle: OK" in text

    def test_is_deterministic(self):
        assert run_explain() == run_explain()


class TestFig2ReuniteGolden:
    def test_matches_the_committed_golden_file(self):
        """REUNITE's span outcomes and flight snapshots, byte for byte."""
        text, code = run_explain(protocol="reunite")
        assert code == 0
        assert text == REUNITE_GOLDEN.read_text()


class TestQueries:
    def test_targeted_query(self):
        text, code = run_explain(query="3.mft[11]")
        assert code == 0
        assert "why 3.mft[11]: " in text
        assert "refresh-tree" in text

    def test_reunite_walkthrough_runs(self):
        text, code = run_explain(protocol="reunite")
        assert code == 0
        assert "(reunite)" in text and "oracle: OK" in text

    def test_unknown_protocol_raises(self):
        with pytest.raises(ExperimentError, match="supports protocols"):
            run_explain(protocol="pim-sm")

    def test_fault_scenario_rejects_other_protocols(self):
        """A fault scenario runs only HBH's event-plane channel, so
        asking it for REUNITE must not render an HBH explanation."""
        with pytest.raises(ExperimentError,
                           match="protocols hbh on 'primary-cut'"):
            run_explain(scenario="primary-cut", protocol="reunite")

    def test_parse_query_rejects_garbage(self):
        assert parse_query(" 3.mft[11] ") == ("3", "mft", "11")
        with pytest.raises(ExperimentError, match="bad --query"):
            parse_query("mft 11")


class TestFaultScenarioExplain:
    def test_fault_scenario_renders_delivery_chains(self):
        text, code = run_explain(scenario="primary-cut")
        assert code == 0
        assert "fault scenario 'primary-cut'" in text
        assert "recovered" in text
        assert "-- post-repair delivery chains --" in text
        assert "delivered to" in text

"""Component catalog: one entry per machine phenomenon, validated names."""

import pytest

from repro.ablation import COMPONENTS, resolve_cells, resolve_components
from repro.core.errors import AblationError
from repro.machines import MACHINES
from repro.bounds.cells import SCOREBOARD_CELLS

pytestmark = pytest.mark.fast


class TestCatalog:
    def test_catalog_mirrors_machine_phenomena(self):
        """Every ``Machine.PHENOMENA`` name appears exactly once, tagged
        with its machine; nothing else is in the catalog."""
        expected = {}
        for mname, cls in MACHINES.items():
            for phen in cls.PHENOMENA:
                expected[phen] = mname
        assert {c.name: c.machine for c in COMPONENTS.values()} == expected

    def test_every_component_documents_its_paper_section(self):
        for comp in COMPONENTS.values():
            assert comp.paper.startswith("§"), comp.name
            assert comp.summary, comp.name

    def test_to_dict_round_trips_the_fields(self):
        comp = COMPONENTS["sync-loss"]
        assert comp.to_dict() == {
            "name": comp.name, "machine": comp.machine,
            "paper": comp.paper, "summary": comp.summary,
        }


class TestResolution:
    def test_none_selects_all_in_catalog_order(self):
        assert resolve_components(None) == list(COMPONENTS.values())
        assert resolve_cells(None) == list(SCOREBOARD_CELLS)

    def test_selection_keeps_catalog_order_not_request_order(self):
        names = list(COMPONENTS)
        picked = [names[2], names[0]]
        assert [c.name for c in resolve_components(picked)] \
            == sorted(picked, key=names.index)

    def test_duplicates_collapse(self):
        assert resolve_cells(["apsp", "apsp"]) == ["apsp"]
        comps = resolve_components(["sync-loss", "sync-loss"])
        assert [c.name for c in comps] == ["sync-loss"]

    def test_unknown_component_names_the_known_set(self):
        with pytest.raises(AblationError, match="unknown component"):
            resolve_components(["bogus"])
        with pytest.raises(AblationError, match="sync-loss"):
            resolve_components(["bogus"])

    def test_unknown_cell_names_the_known_set(self):
        with pytest.raises(AblationError, match="unknown cell"):
            resolve_cells(["bogus"])
        with pytest.raises(AblationError, match="apsp"):
            resolve_cells(["bogus"])

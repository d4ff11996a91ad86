from hypothesis import given
from hypothesis import strategies as st

from fa import (
    EMP,
    build_computation_graph,
    cgraph_summary,
    cgraph_to_dot,
    machine_to_dot,
    make_ndfa,
)
from helpers import dfas, ndfa_with_word, ndfas, parse_dot

ABSTAR_DOT = """digraph machine {
  rankdir=LR;
  node [shape=circle];
  "F" [shape=doublecircle];
  "S" [color=forestgreen];
  "ds";
  "F" -> "F" [label="b"];
  "F" -> "ds" [label="a"];
  "S" -> "F" [label="a"];
  "S" -> "ds" [label="b"];
  "ds" -> "ds" [label="a, b"];
}
"""

REJECT_GRAPH_DOT = """digraph computation {
  rankdir=LR;
  node [shape=circle];
  "A";
  "B";
  "C";
  "D";
  "F";
  "G" [style=filled, fillcolor=crimson, fontcolor=white];
  "S" [shape=doublecircle, color=forestgreen];
  "ds" [style=filled, fillcolor=crimson, fontcolor=white];
  "A" -> "C" [label="b"];
  "B" -> "D" [label="b"];
  "B" -> "F" [label="b"];
  "C" -> "ds" [label="b", style=dashed];
  "D" -> "S" [label="ε"];
  "D" -> "ds" [label="b", style=dashed];
  "F" -> "G" [label="b"];
  "G" -> "B" [label="a"];
  "S" -> "A" [label="a"];
  "S" -> "B" [label="a"];
  "S" -> "ds" [label="b", style=dashed];
}
"""


class TestMachineToDot:
    def test_abstar_snapshot(self, abstar):
        assert machine_to_dot(abstar) == ABSTAR_DOT

    def test_two_branch_counts(self, two_branch):
        nodes, edges = parse_dot(machine_to_dot(two_branch))
        assert len(nodes) == 8
        assert len(edges) == 10  # no parallel rules to merge in this machine
        epsilon_labels = [labels for labels, _ in edges.values() if "ε" in labels]
        assert len(epsilon_labels) == 2

    def test_single_state_machine(self):
        m = make_ndfa(["S"], [], "S", [], [])
        nodes, edges = parse_dot(machine_to_dot(m))
        assert list(nodes) == ["S"]
        assert edges == {}


@given(st.one_of(ndfas(), dfas()))
def test_machine_diagram_draws_every_state_and_rule(machine):
    text = machine_to_dot(machine)
    nodes, edges = parse_dot(text)
    node_lines = [line for line in text.splitlines() if line.startswith('  "') and "->" not in line]
    assert len(node_lines) == len(machine.states)
    assert set(nodes) == set(machine.states)
    for r in machine.rules:
        assert ("ε" if r.read == EMP else r.read) in edges[r.src, r.dst][0]
    assert len(edges) == len({(r.src, r.dst) for r in machine.rules})
    assert not any(dashed for _, dashed in edges.values())


class TestCgraphToDot:
    def test_reject_snapshot(self, two_branch):
        cg = build_computation_graph(two_branch, "abbabb")
        assert cgraph_to_dot(cg) == REJECT_GRAPH_DOT

    def test_accept_graph_has_one_crimson_node_and_no_dashes(self, two_branch):
        cg = build_computation_graph(two_branch, "abaaba")
        nodes, edges = parse_dot(cgraph_to_dot(cg))
        crimson = [q for q, attrs in nodes.items() if "crimson" in attrs]
        assert crimson == ["S"]
        # S is start, final, and highlighted at once: all three markers stack
        assert "color=forestgreen" in nodes["S"]
        assert "shape=doublecircle" in nodes["S"]
        assert not any(dashed for _, dashed in edges.values())
        assert set(nodes) == {"S", "A", "C", "E"}

    def test_empty_word_on_no_rule_machine(self):
        m = make_ndfa(["S"], ["a"], "S", [], [])
        cg = build_computation_graph(m, "")
        nodes, edges = parse_dot(cgraph_to_dot(cg))
        assert list(nodes) == ["S"]
        assert "crimson" in nodes["S"]
        assert edges == {}


class TestSummary:
    def test_reject_summary(self, two_branch):
        cg = build_computation_graph(two_branch, "abbabb")
        assert cgraph_summary(cg) == (
            "verdict: reject\n"
            "end states: G, ds\n"
            "edges: 8\n"
            "dead edges: C -b-> ds, D -b-> ds, S -b-> ds"
        )

    def test_accept_summary(self, two_branch):
        cg = build_computation_graph(two_branch, "abaaba")
        assert cgraph_summary(cg) == "verdict: accept\nend states: S\nedges: 4"

    def test_empty_word_summary(self):
        m = make_ndfa(["S"], ["a"], "S", ["S"], [])
        cg = build_computation_graph(m, "")
        assert cgraph_summary(cg) == "verdict: accept\nend states: S\nedges: 0"

    def test_color_toggle(self, two_branch):
        cg = build_computation_graph(two_branch, "abaaba")
        plain = cgraph_summary(cg)
        colored = cgraph_summary(cg, color=True)
        assert "\x1b[" not in plain
        assert "\x1b[32maccept\x1b[0m" in colored


@given(ndfa_with_word())
def test_rendering_is_stable(machine_word):
    machine, word = machine_word
    cg = build_computation_graph(machine, word)
    assert cgraph_to_dot(cg) == cgraph_to_dot(cg)
    assert machine_to_dot(machine) == machine_to_dot(machine)


@given(ndfa_with_word())
def test_node_set_is_endpoints_plus_start(machine_word):
    machine, word = machine_word
    cg = build_computation_graph(machine, word)
    nodes, _ = parse_dot(cgraph_to_dot(cg))
    expected = {machine.start}
    for e in cg.edges:
        expected |= {e.src, e.dst}
    assert set(nodes) == expected
    assert (cg.dead in nodes) == (cg.dead is not None)


@given(ndfa_with_word())
def test_style_totality(machine_word):
    machine, word = machine_word
    cg = build_computation_graph(machine, word)
    nodes, edges = parse_dot(cgraph_to_dot(cg))
    for q, attrs in nodes.items():
        assert ("fillcolor=crimson" in attrs) == (q in cg.highlighted)
    for (src, dst), (_, dashed) in edges.items():
        assert dashed == (dst == cg.dead)


@given(ndfa_with_word())
def test_solid_subgraph_is_contained_in_machine_diagram(machine_word):
    machine, word = machine_word
    cg = build_computation_graph(machine, word)
    machine_nodes, machine_edges = parse_dot(machine_to_dot(machine))
    _, cg_edges = parse_dot(cgraph_to_dot(cg))
    for (src, dst), (labels, dashed) in cg_edges.items():
        if dashed:
            continue
        assert src in machine_nodes and dst in machine_nodes
        assert labels <= machine_edges[src, dst][0]

"""Documentation/repository consistency: the docs must reference real code.

Keeps README.md, DESIGN.md and docs/paper_mapping.md honest as the code
evolves — every module path and benchmark they mention must exist — and
holds every measured number EXPERIMENTS.md quotes to the figure scripts'
results file, ``benchmarks/results/paper.json``.
"""

import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(name: str) -> str:
    with open(os.path.join(ROOT, name)) as f:
        return f.read()


def referenced_paths(text: str, pattern: str) -> set:
    return set(re.findall(pattern, text))


class TestDocsReferenceRealFiles:
    @pytest.mark.parametrize(
        "doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/paper_mapping.md"]
    )
    def test_mentioned_modules_exist(self, doc):
        text = read(doc)
        for path in referenced_paths(text, r"`(repro/[\w/]+\.py)`"):
            assert os.path.exists(os.path.join(ROOT, "src", path)), (
                f"{doc} references missing module {path}"
            )

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_mentioned_benchmarks_exist(self, doc):
        text = read(doc)
        for name in referenced_paths(text, r"`(bench_\w+\.py)`"):
            assert os.path.exists(os.path.join(ROOT, "benchmarks", name)), (
                f"{doc} references missing benchmark {name}"
            )

    def test_readme_examples_exist(self):
        text = read("README.md")
        for name in referenced_paths(text, r"`(\w+\.py)`"):
            if name.startswith("bench_"):
                continue
            assert os.path.exists(os.path.join(ROOT, "examples", name)), (
                f"README references missing example {name}"
            )

    def test_design_experiment_index_covers_every_figure_bench(self):
        design = read("DESIGN.md")
        for entry in sorted(os.listdir(os.path.join(ROOT, "benchmarks"))):
            if entry.startswith("bench_fig") or entry.startswith("bench_table"):
                assert entry in design, f"DESIGN.md is missing bench {entry}"

    def test_every_figure_bench_has_experiments_entry(self):
        experiments = read("EXPERIMENTS.md")
        for figure in ("Figure 11", "Figure 12", "Figure 13", "Figure 14",
                       "Figure 15", "Figure 16", "Table 1"):
            assert figure in experiments


def ratio_pct(v):
    """A ratio over 1 as the percent it adds: 1.008 -> "0.8"."""
    return f"{100 * (v - 1):.1f}"


def thousands(v):
    return f"{v / 1000:.1f}k"


def units(v):
    return f"{v:,.0f}"


def fixed(digits):
    return lambda v: f"{v:.{digits}f}"


def count(v):
    return str(len(v) if isinstance(v, list) else v)


#: EXPERIMENTS.md heading -> the bold numbers of its section, in order, each
#: as (figure, key path into its headline, format at the doc's precision).
QUOTED = {
    "## Figure 11": [
        ("fig11_robustness", ("min_selectivity_pct",), fixed(2)),
        ("fig11_robustness", ("max_selectivity_pct",), fixed(1)),
        ("fig11_robustness", ("worst_pop_vs_optimal",), fixed(2)),
        ("fig11_robustness", ("high_speedup",), fixed(2)),
        ("fig11_robustness", ("distinct_optimal_plans",), count),
        ("fig11_robustness", ("worst_overhead_without_reopt_pct",), fixed(1)),
        ("fig11_robustness", ("high_static_units",), thousands),
        ("fig11_robustness", ("high_optimal_units",), thousands),
        ("fig11_robustness", ("high_speedup",), fixed(2)),
    ],
    "## Figure 12": [
        ("fig12_lc_overhead", ("runs",), count),
        ("fig12_lc_overhead", ("mean_total",), fixed(3)),
        ("fig12_lc_overhead", ("worst_total",), fixed(3)),
        ("fig12_lc_overhead", ("min_opt_pct",), fixed(1)),
        ("fig12_lc_overhead", ("max_opt_pct",), fixed(1)),
    ],
    "## Figure 13": [
        ("fig13_lcem_cost", ("best_overhead",), fixed(3)),
        ("fig13_lcem_cost", ("worst_overhead",), fixed(3)),
        ("fig13_lcem_cost", ("marker_overhead",), fixed(3)),
    ],
    "## Figure 14": [
        ("fig14_opportunities", ("opportunities",), count),
        ("fig14_opportunities", ("queries",), count),
        ("fig14_opportunities", ("early",), count),
        ("fig14_opportunities", ("opportunities",), count),
        ("fig14_opportunities", ("kinds",), count),
    ],
    "## Figure 15": [
        ("fig15_dmv_scatter", ("improved",), count),
        ("fig15_dmv_scatter", ("regressed",), count),
        ("fig15_dmv_scatter", ("queries",), count),
        ("fig15_dmv_scatter", ("unchanged",), count),
        ("fig15_dmv_scatter", ("longest_nopop",), thousands),
        ("fig15_dmv_scatter", ("longest_pop",), thousands),
        ("fig15_dmv_scatter", ("longest_ratio",), fixed(1)),
    ],
    "## Figure 16": [
        ("fig16_speedup", ("max_speedup",), fixed(2)),
        ("fig16_speedup", ("max_regression",), fixed(2)),
    ],
    "## Table 1": [
        ("table1_flavors", ("max_overhead_pct",), fixed(1)),
        ("table1_flavors", ("opportunities", "LC"), count),
        ("table1_flavors", ("opportunities", "LCEM"), count),
        ("table1_flavors", ("opportunities", "ECB"), count),
        ("table1_flavors", ("opportunities", "ECWC"), count),
        ("table1_flavors", ("opportunities", "ECDC"), count),
        ("ablation_flavors", ("ecb_low_sel_vs_no_pop",), fixed(2)),
    ],
    "## §5.1/§5.2 text claims": [
        ("fig11_robustness", ("worst_pop_vs_optimal",), fixed(2)),
        ("fig12_lc_overhead", ("worst_total",), ratio_pct),
        ("fig13_lcem_cost", ("worst_overhead",), ratio_pct),
        ("fig14_opportunities", ("ecb_first_pct",), fixed(0)),
        ("fig14_opportunities", ("ecb_last_pct",), fixed(0)),
    ],
    "### Validity ranges vs ad hoc thresholds": [
        ("ablation_validity", ("k2", "reopts"), count),
        ("ablation_validity", ("validity", "reopts"), count),
        ("ablation_validity", ("k2", "units"), units),
        ("ablation_validity", ("validity", "units"), units),
        ("ablation_validity", ("k20", "reopts"), count),
        ("ablation_validity", ("k20", "units"), units),
        ("ablation_validity", ("k20_extra_pct",), fixed(0)),
    ],
    "### Reuse policy": [
        ("ablation_reuse", ("cost_equals_always",), count),
        ("ablation_reuse", ("cases",), count),
        ("ablation_reuse", ("min_discard_vs_cost",), fixed(2)),
        ("ablation_reuse", ("max_discard_vs_cost",), fixed(2)),
    ],
    "### Newton–Raphson cap": [
        ("ablation_newton", ("cap3_finite",), count),
        ("ablation_newton", ("cap3_edges",), count),
        ("ablation_newton", ("cap6_finite",), count),
        ("ablation_newton", ("cap1_median_upper",), units),
        ("ablation_newton", ("cap3_median_upper",), units),
    ],
    "### Flavor mixes": [
        ("ablation_flavors", ("high_sel", "LC only"), units),
        ("ablation_flavors", ("high_sel", "no POP"), units),
        ("ablation_flavors", ("high_sel", "LC+LCEM (default)"), units),
        ("ablation_flavors", ("default_low_sel_extra_pct",), fixed(1)),
        ("ablation_flavors", ("ecb_low_sel_vs_no_pop",), fixed(2)),
    ],
    "### §7 local checking under partitioning": [
        ("parallel_local_checking", ("high_local_reopts",), count),
        ("parallel_local_checking", ("fragments",), count),
        ("parallel_local_checking", ("high_distinct_plans",), count),
        ("parallel_local_checking", ("high_static_vs_local",), fixed(2)),
        ("parallel_local_checking", ("high_local_pop",), units),
        ("parallel_local_checking", ("high_static",), units),
    ],
}


def sections(text: str) -> dict:
    """Heading line -> the text up to the next ``##``/``###`` heading."""
    parts = re.split(r"^(#{2,3} .*)$", text, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def bold_numbers(text: str) -> list:
    return [
        number
        for span in re.findall(r"\*\*(.+?)\*\*", text, flags=re.S)
        for number in re.findall(r"\d+(?:,\d{3})*(?:\.\d+)?k?", span)
    ]


def section_of(heading: str) -> str:
    found = [
        body
        for line, body in sections(read("EXPERIMENTS.md")).items()
        if line.startswith(heading)
    ]
    assert len(found) == 1, f"EXPERIMENTS.md has {len(found)} '{heading}' sections"
    return found[0]


class TestExperimentsQuotePaperJson:
    """A measured number in EXPERIMENTS.md is bold, and equals its headline
    in ``paper.json`` as written; reading the file costs no run."""

    @pytest.mark.parametrize(
        "heading",
        list(QUOTED),
        ids=[re.sub(r"\W+", "_", h.lstrip("# ")).strip("_") for h in QUOTED],
    )
    def test_quoted_numbers_equal_paper_json(self, heading):
        paper = json.loads(read("benchmarks/results/paper.json"))
        expected = []
        for figure, path, fmt in QUOTED[heading]:
            value = paper[figure]["headline"]
            for key in path:
                value = value[key]
            expected.append(fmt(value))
        assert bold_numbers(section_of(heading)) == expected

    def test_every_section_quoting_numbers_is_checked(self):
        for line, body in sections(read("EXPERIMENTS.md")).items():
            if bold_numbers(body):
                assert any(line.startswith(h) for h in QUOTED), (
                    f"EXPERIMENTS.md '{line}' quotes bold numbers no test checks"
                )


class TestPublicApiMatchesDocs:
    def test_readme_quickstart_names_are_importable(self):
        import repro

        for name in ("Database", "PopConfig"):
            assert hasattr(repro, name)

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

"""EXPERIMENTS.md quotes the committed tables in ``results/``.

Every section of EXPERIMENTS.md that names one ``results/<name>.txt``
table is a figure section.  Each markdown table in it keys its rows by
workload (first column) and has value columns headed
``[<variant>] [<N>c] <label> [time|traffic]``:

* ``<label>`` is a protocol label as the table prints it (M, DS0, DS, ...);
* ``<N>c`` is the core count, left out where the workload has only one
  (Figure 7's apps);
* ``<variant>`` picks one figure of a table that holds several (an
  ablation's variants): the parenthesized end of its ``==`` title;
* the metric defaults to time.

Every such cell, with bold removed, must equal the table's two-decimal
value.  The headline block is recomputed from Figures 3-6, the
extension studies' claims are checked on their tables, and Table 1's
measured latencies against the latency model.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.config import config_16, config_64
from repro.noc.mesh import Mesh

REPO = Path(__file__).resolve().parents[1]
RESULTS = REPO / "results"
DOC = REPO / "EXPERIMENTS.md"

#: Width of the workload column in the text tables (report.py).
WORKLOAD_WIDTH = 16
KERNEL_FIGURES = ("fig3", "fig4", "fig5", "fig6")


def parse_table_file(path: Path) -> dict[tuple, str]:
    """``{(variant, workload, cores, label, metric): "0.88"}`` of one
    ``results/*.txt`` file; ``variant`` is the ``==`` title's
    parenthesized end."""
    values: dict[tuple, str] = {}
    variant = metric = None
    for line in path.read_text().splitlines():
        if line.startswith("== "):
            title = line[3:].rsplit(" (scale=", 1)[0]
            variant = title[title.rindex("(") + 1 : -1]
        elif line.startswith("workload"):
            metric = line.split()[3]
        elif line.strip():
            cores, label, value = line[WORKLOAD_WIDTH:].split()[:3]
            key = (variant, line[:WORKLOAD_WIDTH].strip(), int(cores), label, metric)
            values[key] = value
    return values


def markdown_sections(text: str) -> dict[str, str]:
    """``{## heading: body}`` of a markdown document."""
    sections: dict[str, str] = {}
    heading = ""
    for line in text.splitlines():
        if line.startswith("## "):
            heading = line[3:].strip()
            sections[heading] = ""
        else:
            sections[heading] = sections.get(heading, "") + line + "\n"
    return sections


def markdown_tables(body: str) -> list[list[list[str]]]:
    """The markdown tables of a section: rows of stripped cells, header
    first, the ``|---|`` rule dropped."""
    tables: list[list[list[str]]] = []
    current: list[list[str]] = []
    for line in body.splitlines() + [""]:
        if line.startswith("|"):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if not all(re.fullmatch(r":?-+:?", cell) for cell in cells):
                current.append(cells)
        elif current:
            tables.append(current)
            current = []
    return tables


def named_tables(text: str) -> set[str]:
    return set(re.findall(r"results/([\w.-]+\.txt)", text))


def parse_header(cell: str, values: dict[tuple, str]) -> dict:
    """Split ``[<variant>] [<N>c] <label> [time|traffic]`` against the
    variants and labels the table holds."""
    words = cell.split()
    metric = words.pop() if words and words[-1] in ("time", "traffic") else "time"
    label = words.pop() if words else ""
    cores = int(words.pop()[:-1]) if words and re.fullmatch(r"\d+c", words[-1]) else None
    variant = " ".join(words) or None
    assert label in {key[3] for key in values}, f"header {cell!r}: no protocol {label!r}"
    variants = {key[0] for key in values}
    assert variant in variants or (variant is None and len(variants) == 1), (
        f"header {cell!r}: name one variant of {sorted(variants)}"
    )
    return dict(variant=variant, cores=cores, label=label, metric=metric)


def lookup(values: dict[tuple, str], workload: str, header: dict) -> str:
    matches = [
        value
        for (variant, name, cores, label, metric), value in values.items()
        if name == workload
        and label == header["label"]
        and metric == header["metric"]
        and header["variant"] in (None, variant)
        and header["cores"] in (None, cores)
    ]
    assert len(matches) == 1, f"{workload!r} {header}: {len(matches)} table cells"
    return matches[0]


def figure_sections() -> list[tuple[str, str, str]]:
    """``(heading, table file, body)`` of every section naming one table."""
    out = []
    for heading, body in markdown_sections(DOC.read_text()).items():
        files = named_tables(body)
        if len(files) == 1:
            out.append((heading, files.pop(), body))
    return out


def test_named_tables_exist_and_every_table_is_named():
    named = named_tables(DOC.read_text())
    committed = {path.name for path in RESULTS.glob("*.txt")}
    assert named - committed == set(), "EXPERIMENTS.md names missing tables"
    assert committed - named == set(), "EXPERIMENTS.md does not name these tables"


def test_every_cli_table_has_its_own_section():
    from repro.harness.cli import FIGURES

    quoted = [filename for _, filename, _ in figure_sections()]
    assert sorted(quoted) == sorted(f"{name}.txt" for name in FIGURES)


@pytest.mark.parametrize(
    "heading, filename, body",
    figure_sections(),
    ids=[filename for _, filename, _ in figure_sections()],
)
def test_figure_section_quotes_its_table(heading, filename, body):
    values = parse_table_file(RESULTS / filename)
    for table in markdown_tables(body):
        header, *rows = table
        columns = [parse_header(cell, values) for cell in header[1:]]
        for row in rows:
            for header_cell, column, cell in zip(header[1:], columns, row[1:]):
                quoted = cell.replace("*", "")
                assert quoted == lookup(values, row[0], column), (
                    f"{heading}: {row[0]} / {header_cell} quotes {quoted}"
                )


def headline_figures() -> dict[str, object]:
    """The abstract's aggregate over Figures 3-6's 48 DeNovoSync cases,
    from the tables' two-decimal values."""
    times, traffics = [], []
    for name in KERNEL_FIGURES:
        values = parse_table_file(RESULTS / f"{name}.txt")
        for (_, workload, cores, label, metric), value in values.items():
            if label == "DS":
                (times if metric == "time" else traffics).append(float(value))
    return {
        "cases": len(times),
        "avg_time": sum(times) / len(times),
        "avg_traffic": sum(traffics) / len(traffics),
        "best_time": min(times),
        "best_traffic": min(traffics),
        "worse": sum(1 for t in times if t > 1.10),
    }


def _percent(ratio: float) -> str:
    change = round(100 * (ratio - 1))
    return f"{'−' if change < 0 else '+'}{abs(change)}%"


def test_headline_holds():
    """The headline's shape: clearly lower average time and traffic, and
    about as few worse cases as the paper's "all but four"."""
    headline = headline_figures()
    assert headline["cases"] == 48
    assert headline["avg_time"] < 0.95
    assert headline["avg_traffic"] < 0.70
    assert headline["worse"] <= 6


def column(name: str, variant: str, label: str) -> dict[tuple[str, int], float]:
    """``{(workload, cores): time}`` of one protocol in one variant of
    ``results/<name>.txt``."""
    return {
        (workload, cores): float(value)
        for (v, workload, cores, proto, metric), value in parse_table_file(
            RESULTS / f"{name}.txt"
        ).items()
        if (v, proto, metric) == (variant, label, "time")
    }


def test_queuing_locks_separate_the_protocols_less_than_tatas():
    tatas = column("ext-lock-design", "tatas", "DS").values()
    mcs = column("ext-lock-design", "mcs", "DS").values()
    assert len(tatas) == len(mcs) == 4
    assert sum(tatas) / len(tatas) <= sum(mcs) / len(mcs) + 0.15


def test_rfo_does_not_lose_to_mesi_on_array_locks():
    times = column("ext-rfo", "array", "M-RFO").values()
    assert len(times) == 4 and max(times) <= 1.10


def test_signatures_stay_competitive_on_fluidanimate():
    static = column("ext-signatures", "fluidanimate", "DS")
    signatures = column("ext-signatures", "fluidanimate", "DSsig")
    assert signatures[("fluidanimate", 64)] <= 1.1 * static[("fluidanimate", 64)]


def test_tatas_advantage_widens_while_tree_barriers_tie():
    counter = column("ext-scaling", "tatas", "DS")
    assert counter[("counter", 64)] < counter[("counter", 4)]
    tree = column("ext-scaling", "barrier", "DS")
    assert sorted(cores for _, cores in tree) == [4, 16, 64]
    assert all(0.8 < time < 1.25 for time in tree.values())


def test_calibration_constants_never_flip_an_ordering():
    tatas = column("ext-sensitivity", "tatas counter", "DS").values()
    queue = column("ext-sensitivity", "M-S queue", "DS0").values()
    backoff = column("ext-sensitivity", "backoff", "DS").values()
    assert (len(tatas), len(queue), len(backoff)) == (9, 9, 4)
    assert max(tatas) < 1.0 and min(queue) > 0.9 and max(backoff) < 1.0


def latency_ranges(config) -> dict[str, str]:
    """``{Table 1 parameter: "min–max"}`` of the latency model's cycles."""
    mesh = Mesh(config)
    cores, banks = range(config.num_cores), range(config.l2_banks)
    samples = {
        "L1 hit": [config.l1_hit_latency],
        "L2 hit": [mesh.l2_access_latency(c, b) for c in cores for b in banks],
        "remote L1": [
            mesh.remote_l1_latency(c, b, owner) for c in cores for b in banks for owner in cores
        ],
        "memory": [mesh.memory_latency(c, b) for c in cores for b in banks],
    }
    return {
        name: f"{min(cycles)}–{max(cycles)}" if min(cycles) < max(cycles) else str(cycles[0])
        for name, cycles in samples.items()
    }


def test_table1_quotes_the_latency_model():
    sections = markdown_sections(DOC.read_text())
    (table,) = markdown_tables(sections["Table 1 — simulated system parameters"])
    header, *rows = table
    for config in (config_16(), config_64()):
        measured = header.index(f"measured {config.num_cores}c")
        quoted = {row[0]: row[measured] for row in rows}
        assert quoted == latency_ranges(config), f"{config.num_cores} cores"


def test_headline_table_quotes_the_tables():
    headline = headline_figures()
    expected = {
        "DeNovoSync avg execution time vs MESI": _percent(headline["avg_time"]),
        "DeNovoSync avg network traffic vs MESI": _percent(headline["avg_traffic"]),
        "best case (time / traffic)": (
            f"{_percent(headline['best_time'])} / {_percent(headline['best_traffic'])}"
        ),
        "cases worse than MESI by more than 10%": f"{headline['worse']} of 48",
    }
    (table,) = markdown_tables(markdown_sections(DOC.read_text())["Headline (abstract)"])
    measured = {row[0]: row[-1].replace("*", "") for row in table[1:]}
    for name, value in expected.items():
        assert measured[name].startswith(value), f"{name}: {measured[name]} != {value}"

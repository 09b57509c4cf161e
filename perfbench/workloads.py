"""The four benchmark workloads: inputs, the timed call, and output checks.

Everything here runs inside a program process (see ``program.py``) after
the set-up phase, so ``repro`` imports are local to each function. Each
workload's ``run`` is the timed call; ``check`` runs after the timer
stops and returns ``[(check name, passed), ...]``; ``perturb`` returns
the output with one result corrupted, so the negative test can show the
checks catch it.

Checks hold for any seed:

- useful MACs agree across dense, one-sided and the SparTen variants;
- breakdown components sum to cycles x MACs;
- dense and one-sided cycles equal the exact closed forms of
  ``repro.analytical.model.predict_layer``;
- at seed 0, ``report_fast`` is byte-identical to ``REPORT.md`` and its
  Fig 7/8/9 speed-ups equal ``tests/golden/speedups_fast_seed0.json``;
- ``sweep_2shard`` reconciles as complete and exactly-once;
- ``dse_prescreen`` survivors simulate within 10 % of the prediction.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib

#: Relative tolerance for quantities that must agree exactly up to float noise.
REL_TOL = 1e-9

#: ``benchmarks/check_analytical.py``'s bound on the analytical tier's error.
ANALYTICAL_TOL = 0.10

#: The 420-point design space of ``dse_prescreen``: 20 x 7 x 3.
DSE_CLUSTERS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 80, 96, 112, 128,
                160, 192, 224, 256)
DSE_UNITS = (4, 8, 16, 32, 64, 128, 256)
DSE_VARIANTS = ("no_gb", "gb_s", "gb_h")
DSE_TOP_K = 3

#: Schemes whose useful (non-zero) MACs must equal dense's.
USEFUL_MAC_SCHEMES = ("one_sided", "sparten_no_gb", "sparten_gb_s", "sparten")

#: The paper's headline means (abstract and Section 5).
PAPER_HEADLINE = {
    "sim_vs_dense": 4.7,
    "sim_vs_one_sided": 1.8,
    "sim_vs_scnn": 3.0,
    "fpga_vs_dense": 4.3,
    "fpga_vs_one_sided": 1.9,
}


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def repo_root() -> pathlib.Path:
    return pathlib.Path(os.environ["PERFBENCH_ROOT"])


# ---------------------------------------------------------------------------
# Shared checks over an ArchitectureComparison.
# ---------------------------------------------------------------------------


def comparison_checks(prefix: str, fig: dict, network, fast: bool, seed: int):
    from repro.analytical.model import predict_layer
    from repro.eval.experiments import FAST_SAMPLE
    from repro.sim.config import config_for

    comp = fig["comparison"]
    cfg = config_for(network)
    if fast:
        cfg = cfg.with_sampling(FAST_SAMPLE, batch=1)
    checks = []
    for layer in comp.layer_names:
        dense = comp.results["dense"][layer]
        for scheme in USEFUL_MAC_SCHEMES:
            if scheme in comp.results:
                ok = close(comp.results[scheme][layer].breakdown.nonzero_macs,
                           dense.breakdown.nonzero_macs)
                checks.append((f"{prefix}/useful_macs/{scheme}/{layer}", ok))
        for scheme in comp.schemes:
            result = comp.results[scheme][layer]
            ok = close(result.breakdown.total, result.cycles * result.total_macs)
            checks.append((f"{prefix}/breakdown_sum/{scheme}/{layer}", ok))
        spec = network.layer(layer)
        for scheme in ("dense", "one_sided"):
            if scheme in comp.results:
                predicted = predict_layer(spec, cfg, scheme=scheme, seed=seed)
                ok = close(predicted.cycles, comp.results[scheme][layer].cycles)
                checks.append((f"{prefix}/closed_form/{scheme}/{layer}", ok))
    return checks


def comparison_digest(figs: list[dict]) -> list:
    rows = []
    for fig in figs:
        comp = fig["comparison"]
        for scheme in comp.schemes:
            for layer in comp.layer_names:
                r = comp.results[scheme][layer]
                rows.append((scheme, layer, r.cycles,
                             dataclasses.astuple(r.breakdown)))
    return rows


def perturb_comparison(fig: dict) -> None:
    """Make one SparTen result take 1.5x its cycles, breakdown unchanged."""
    results = fig["comparison"].results["sparten"]
    layer = next(iter(results))
    results[layer] = dataclasses.replace(
        results[layer], cycles=results[layer].cycles * 1.5
    )


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# vggnet_exact: Figure 9 at full resolution.
# ---------------------------------------------------------------------------


def _speedup_network(smoke: bool):
    from repro.nets.models import alexnet, vggnet

    return alexnet() if smoke else vggnet()


def vggnet_run(seed: int, smoke: bool, tmp: pathlib.Path):
    from repro.eval.experiments import speedup_figure

    return speedup_figure(_speedup_network(smoke), fast=smoke, seed=seed)


def vggnet_check(fig: dict, seed: int, smoke: bool, tmp: pathlib.Path):
    return comparison_checks("fig9", fig, _speedup_network(smoke), smoke, seed)


def vggnet_perturb(fig: dict) -> dict:
    perturb_comparison(fig)
    return fig


def vggnet_digest(fig: dict) -> str:
    return digest(comparison_digest([fig]))


def vggnet_paper(fig: dict, seed: int) -> list[str]:
    g = fig["geomean"]
    return [
        f"sparten vs dense      {g['sparten']:.2f}x  "
        f"(paper headline mean over three networks {PAPER_HEADLINE['sim_vs_dense']}x)",
        f"sparten vs one-sided  {g['sparten'] / g['one_sided']:.2f}x  "
        f"(paper {PAPER_HEADLINE['sim_vs_one_sided']}x)",
        f"sparten vs scnn       {g['sparten'] / g['scnn']:.2f}x  "
        f"(paper {PAPER_HEADLINE['sim_vs_scnn']}x)",
    ]


# ---------------------------------------------------------------------------
# report_fast: every section of REPORT.md.
# ---------------------------------------------------------------------------


def report_run(seed: int, smoke: bool, tmp: pathlib.Path):
    from repro.eval.report import generate_report

    return generate_report(str(tmp / "REPORT.md"), seed=seed)


#: Report sections that render Figures 7-9, by network name.
REPORT_SPEEDUP_TITLES = {
    "AlexNet": "Figure 7 — AlexNet speedup",
    "GoogLeNet": "Figure 8 — GoogLeNet speedup",
    "VGGNet": "Figure 9 — VGGNet speedup",
}


def _report_figs(seed: int) -> dict:
    """Fig 7/8/9 after the report ran: answered from the result memo."""
    from repro.eval.experiments import speedup_figure
    from repro.nets.models import alexnet, googlenet, vggnet

    return {net.name: (net, speedup_figure(net, fast=True, seed=seed))
            for net in (alexnet(), googlenet(), vggnet())}


def report_check(text: str, seed: int, smoke: bool, tmp: pathlib.Path):
    from repro.eval.reporting import render_speedups

    reference = (repo_root() / "REPORT.md").read_text()
    checks = [("report/sections", text.count("\n## ") == reference.count("\n## "))]
    figs = _report_figs(seed)
    for name, (net, fig) in figs.items():
        title = REPORT_SPEEDUP_TITLES[name]
        section = f"## {title}\n\n```\n{render_speedups(fig, title)}\n```\n"
        checks.append((f"report/section_matches_results/{name}", section in text))
        checks += comparison_checks(f"report/{name}", fig, net, True, seed)
    if seed == 0:
        checks.append(("report/byte_identical_seed0", text == reference))
        golden_path = repo_root() / "tests" / "golden" / "speedups_fast_seed0.json"
        golden = json.loads(golden_path.read_text())
        for name, (net, fig) in figs.items():
            want = golden[name]
            ok = all(
                close(fig["layers"][scheme][layer], value)
                for scheme, layers in want["layers"].items()
                for layer, value in layers.items()
            ) and all(close(fig["geomean"][s], v) for s, v in want["geomean"].items())
            checks.append((f"report/golden_seed0/{name}", ok))
    return checks


def report_perturb(text: str) -> str:
    """Append a digit to the first row of the Figure 7 table."""
    body = text.index("```\n", text.index("## " + REPORT_SPEEDUP_TITLES["AlexNet"])) + 4
    end = text.index("\n", body)
    return text[:end] + "0" + text[end:]


def report_digest(text: str) -> str:
    return digest(text)


def report_paper(text: str, seed: int) -> list[str]:
    from repro.eval.experiments import headline_means

    means = headline_means(fast=True, seed=seed)  # memo hits after the report
    lines = []
    for key, paper in PAPER_HEADLINE.items():
        note = "  (FPGA bandwidth calibrated on these figures)" if key.startswith("fpga") else ""
        lines.append(f"{key:18s} measured {means[key]:.2f}x  paper {paper}x{note}")
    return lines


# ---------------------------------------------------------------------------
# dse_prescreen: analytical pre-screen of a 420-point grid per conv layer.
# ---------------------------------------------------------------------------


def _dse_space(smoke: bool):
    from repro.nets.models import alexnet, vggnet

    if smoke:
        geoms = tuple((c, u) for c in DSE_CLUSTERS[:4] for u in DSE_UNITS[:3])
        return (alexnet().layer("Layer2"),), geoms
    geoms = tuple((c, u) for c in DSE_CLUSTERS for u in DSE_UNITS)
    return (*alexnet().layers, *vggnet().layers), geoms


def dse_run(seed: int, smoke: bool, tmp: pathlib.Path):
    from repro.sim.sweeps import prescreened_sweep

    layers, geoms = _dse_space(smoke)
    return [
        prescreened_sweep(spec, geoms, variants=DSE_VARIANTS, seed=seed,
                          top_k=DSE_TOP_K)
        for spec in layers
    ]


def dse_check(results: list, seed: int, smoke: bool, tmp: pathlib.Path):
    layers, geoms = _dse_space(smoke)
    checks = []
    for spec, result in zip(layers, results):
        points = len(geoms) * len(DSE_VARIANTS)
        checks.append((f"dse/points/{spec.name}", len(result["analytical"]) == points))
        checks.append((f"dse/survivors/{spec.name}",
                       len(result["simulated"]) == DSE_TOP_K))
        for geom, row in result["simulated"].items():
            predicted = result["analytical"][geom]["speedup_vs_dense"]
            error = abs(row["speedup_vs_dense"] - predicted) / predicted
            checks.append((f"dse/within_10pct/{spec.name}/{geom}",
                           error <= ANALYTICAL_TOL))
    return checks


def dse_perturb(results: list) -> list:
    simulated = results[0]["simulated"]
    row = simulated[next(iter(simulated))]
    row["speedup_vs_dense"] *= 1.5
    return results


def dse_digest(results: list) -> str:
    return digest([sorted(r["simulated"].items()) for r in results]
                  + [sorted(r["analytical"].items()) for r in results])


def dse_paper(results: list, seed: int) -> list[str]:
    best = max(
        (row["speedup_vs_dense"], geom)
        for r in results for geom, row in r["simulated"].items()
    )
    return [f"best simulated survivor {best[1]}: {best[0]:.2f}x over equal-MAC dense "
            "(not a paper figure)"]


# ---------------------------------------------------------------------------
# sweep_2shard: two `repro sweep` shards over one fresh store.
# ---------------------------------------------------------------------------

SWEEP_SCHEMES = ("sparten", "sparten_gb_s", "dense")
SWEEP_SAMPLE = 200


def sweep_argv(store: pathlib.Path, shard: str, seed: int, smoke: bool) -> list[str]:
    seeds = range(seed * 10, seed * 10 + (2 if smoke else 10))
    argv = [
        "sweep", "--store", str(store), "--shard", shard,
        "--network", "alexnet", "--schemes", ",".join(SWEEP_SCHEMES),
        "--seeds", ",".join(str(s) for s in seeds),
        "--sample", str(25 if smoke else SWEEP_SAMPLE),
    ]
    if smoke:
        argv += ["--layers", "Layer1,Layer2"]
    return argv


def sweep_check(store: pathlib.Path, perturb: bool):
    """Reconcile the store and check every journaled result."""
    from repro.dist.worker import reconcile
    from repro.resilience.checkpoint import load_journal

    if perturb:
        os.unlink(sorted(store.glob("ckpt-*.pkl"))[0])
    report = reconcile(store)
    checks = [("sweep/complete", report["complete"]),
              ("sweep/exactly_once", report["exactly_once"])]
    entries = load_journal(store)
    by_workload: dict = {}
    for key, result in entries:
        ok = close(result.breakdown.total, result.cycles * result.total_macs)
        checks.append((f"sweep/breakdown_sum/{key[1]}/{result.layer_name}/{key[5]}", ok))
        by_workload.setdefault((key[3], key[5]), []).append(result)
    for (spec, seed), results in sorted(by_workload.items(), key=repr):
        useful = [r.breakdown.nonzero_macs for r in results]
        ok = all(close(u, useful[0]) for u in useful)
        checks.append((f"sweep/useful_macs/{results[0].layer_name}/{seed}", ok))
    rows = sorted(
        (repr(key), r.cycles, dataclasses.astuple(r.breakdown)) for key, r in entries
    )
    return checks, digest(rows)


def store_usage(store: pathlib.Path) -> dict[str, float]:
    """Bytes the sweep left in its store, by kind, in MB; plus event lines."""
    sizes = {"cache": 0, "journal": 0, "telemetry": 0, "total": 0}
    event_lines = 0
    for path in store.rglob("*"):
        if not path.is_file():
            continue
        size = path.stat().st_size
        sizes["total"] += size
        top = path.relative_to(store).parts[0]
        if top == "cache":
            sizes["cache"] += size
        elif path.name.startswith("ckpt-"):
            sizes["journal"] += size
        elif top in ("events", "metrics", "health", "manifests"):
            sizes["telemetry"] += size
        if top == "events" and path.suffix == ".jsonl":
            with open(path, "rb") as fh:
                event_lines += sum(1 for _ in fh)
    usage = {f"dist.store.{k}_mb": v / 1e6 for k, v in sizes.items() if k != "total"}
    usage["disk_mb"] = sizes["total"] / 1e6
    usage["telemetry.event_lines"] = event_lines
    return usage


#: name -> (run, check, perturb, digest, paper lines, entry span name).
SINGLE_PROCESS = {
    "vggnet_exact": (vggnet_run, vggnet_check, vggnet_perturb, vggnet_digest,
                     vggnet_paper, "eval.speedup_figure"),
    "report_fast": (report_run, report_check, report_perturb, report_digest,
                    report_paper, "eval.generate_report"),
    "dse_prescreen": (dse_run, dse_check, dse_perturb, dse_digest, dse_paper, None),
}

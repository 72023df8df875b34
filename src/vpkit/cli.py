"""Config-driven front end: flat INI scenarios in, CSV tables and JSON out.

Subcommands: run <config>, acceptance [suite], scan-stability <config> and
kernel-table <config> (the last two run a config as stability_scan or
kernel_bounds). The config schema, and parse_config, live in vpkit.config;
each scenario has one worker here.

Reports are deterministic: the same config and seed reproduce the same CSV
bytes, and report.json records a sha256 content hash over everything else
written. Outputs are streamed: each file is written in chunks and hashed as
it is written, so a run's writer memory does not grow with its history
length. Floats are serialized with 17 significant digits everywhere (JSON
carries them as strings so no encoder shortens them); wall time and peak
RSS live only in report.json, never in the hash. The output directory is
the only setting with an environment override (VPKIT_OUT, beaten by --out).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .acceptance import (
    SUITES,
    CriterionResult,
    check_collision_sweep,
    check_decay_fit,
    check_echo_arrival,
    check_echo_contrast,
    check_exact_shift,
    check_mass_drift,
    check_norm_item,
    collision_sweep,
    free_transport_march,
    mass_drift,
    norm_battery_report,
    run_battery,
)
from .config import SCENARIOS, SimConfig, parse_config
from .echo import EXACT_CASE_GATE, PHASE_BOUND_GATE, phase_table_gate, random_phase_table
from .errors import (
    EchoBeyondRecurrence,
    MarginNonPositive,
    ParseError,
    ResolutionExceeded,
    ValidationError,
    VpkitError,
    broken,
)
from .kinetic import (
    FUTURE_ECHO, RECURRENCE_SAFETY, RESOLUTION_TOL, FieldHistory, echo_experiment, run,
)
from .lintheory import dispersion_rate, stability_scan


# ---------------------------------------------------------------------------
# deterministic serialization

def _json_ready(obj):
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return str(obj)


def _json_bytes(obj) -> bytes:
    return (json.dumps(_json_ready(obj), indent=2, sort_keys=True) + "\n").encode("utf-8")


def _peak_rss() -> dict:
    """The peak RSS entry of a JSON report: MB of this process and of its
    reaped children, the forked lanes among them, or None without resource.
    ru_maxrss is in KiB on Linux and in bytes on macOS."""
    try:
        import resource
    except ImportError:
        return {"peak_rss_mb": None}
    scale = 2.0**20 if sys.platform == "darwin" else 2.0**10
    usage = {"self": resource.RUSAGE_SELF, "children": resource.RUSAGE_CHILDREN}
    return {"peak_rss_mb": {who: resource.getrusage(which).ru_maxrss / scale
                            for who, which in usage.items()}}


def _cell(v) -> str:
    """A CSV cell: the JSON form of a scalar, with booleans lower-case."""
    v = _json_ready(v)
    return ("true" if v else "false") if isinstance(v, bool) else str(v)


def _csv_bytes(header, rows) -> bytes:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


# rows per chunk of a column table; a history chunk holds whole records
_CSV_BLOCK_ROWS = 2048


def _csv_chunks(header, row: str, blocks):
    """A header line, then one chunk per block of equal-length column arrays,
    each row through the %-format row. "%.17g" formats a float as
    format(v, ".17g") does, so cells match _cell's bytes."""
    yield (",".join(header) + "\n").encode("utf-8")
    row += "\n"
    for block in blocks:
        yield "".join(row % cells for cells in zip(*(c.tolist() for c in block))).encode("utf-8")


def _columns_csv(columns: dict, row: str | None = None):
    """A table of equal-length arrays, header -> column, in chunks of
    _CSV_BLOCK_ROWS rows, with one %-format per row (default "%.17g")."""
    arrays = list(columns.values())
    n_rows = min(map(len, arrays), default=0)
    return _csv_chunks(
        columns, row or ",".join(["%.17g"] * len(arrays)),
        ([a[i:i + _CSV_BLOCK_ROWS] for a in arrays] for i in range(0, n_rows, _CSV_BLOCK_ROWS)),
    )


def _history_csv(hist: FieldHistory):
    """One row per (record, mode), in chunks of whole records. The moduli come
    from np.hypot, which rounds as Python's abs(complex) does where np.abs can
    differ in the last digit."""
    per_chunk = max(1, _CSV_BLOCK_ROWS // hist.modes.size)

    def block(i):
        times = hist.times[i:i + per_chunk]
        rho = hist.rho_hat[i:i + per_chunk].ravel()
        e = hist.e_hat[i:i + per_chunk].ravel()
        return [np.repeat(times, hist.modes.size), np.tile(hist.modes, times.size),
                rho.real, rho.imag, np.hypot(rho.real, rho.imag),
                e.real, e.imag, np.hypot(e.real, e.imag)]

    return _csv_chunks(
        ["t", "k", "re_rho", "im_rho", "abs_rho", "re_E", "im_E", "abs_E"],
        "%.17g,%d," + ",".join(["%.17g"] * 6),
        (block(i) for i in range(0, hist.times.size, per_chunk)),
    )


def _ran_to_t_end(stop_reason, stopped_at, t_end, edge_fraction) -> CriterionResult:
    """Whether a guarded march reached t_end: why and when it stopped, and the
    resolution guard's edge fraction there (the tripping value on a trip)."""
    return CriterionResult(
        None, "ran_to_t_end", stop_reason == "t_end",
        {"stop_reason": stop_reason, "stopped_at": stopped_at, "t_end": t_end,
         "edge_fraction": edge_fraction},
        f"reaches t_end; resolution guard edge fraction <= {RESOLUTION_TOL:g}",
    )


# ---------------------------------------------------------------------------
# scenario workers: each returns (criteria, files), files mapping a file name
# to an iterable of byte chunks (a small file is one chunk)

def _run_linear_landau(config: SimConfig):
    params = config.run
    hist, diag = run(params)
    fit = check_decay_fit(
        hist, params.k_pert, (0.09 * params.t_end, 0.94 * params.t_end),
        lambda: dispersion_rate(params.k_pert, params.nu, params.profile, params.interaction),
    )
    criteria = [fit, check_mass_drift(mass_drift(hist)), _ran_to_t_end(
        diag["stop_reason"], diag["stop_time"], params.t_end, diag["stop_edge_fraction"]
    )]
    series = {key: value for key, value in diag.items() if isinstance(value, np.ndarray)}
    return criteria, {"history.csv": _history_csv(hist), "diagnostics.csv": _columns_csv(series)}


def _run_free_transport_check(config: SimConfig):
    march = free_transport_march(config.run)
    hist = march["hist"]
    criteria = [check_exact_shift(march), check_mass_drift(mass_drift(hist))]
    trace, exact = march["trace"], march["exact"]
    gap = trace - exact
    files = {
        "history.csv": _history_csv(hist),
        "transport.csv": _columns_csv({
            "t": hist.times, "re_rho": trace.real, "im_rho": trace.imag,
            "re_ref": exact.real, "im_ref": exact.imag, "abs_err": np.hypot(gap.real, gap.imag),
        }),
    }
    return criteria, files


def _run_echo_experiment(config: SimConfig):
    settings = config.echo

    def refusal(criterion, reason):
        return [criterion], {"echo.json": [_json_bytes({"refusal": reason})]}

    no_echo = broken((FUTURE_ECHO,), asdict(settings))
    if no_echo:
        return refusal(
            CriterionResult(None, "future_echo_exists", False, {"reason": no_echo[0]}, "t* > s"),
            no_echo[0],
        )
    try:
        report = echo_experiment(
            replace(config.run, amplitude=0.0), settings.l, settings.force_mode,
            settings.s_force, settings.eps1, settings.eps2,
        )
    except EchoBeyondRecurrence as err:
        return refusal(CriterionResult(
            None, "echo_inside_recurrence_horizon", False,
            {"reason": str(err)}, f"t* below {RECURRENCE_SAFETY:g} of the grid recurrence time",
        ), str(err))
    except ResolutionExceeded as err:
        return refusal(
            _ran_to_t_end("resolution_exceeded", err.time, config.t_end, err.fraction), str(err)
        )
    criteria = [check_echo_arrival(report.t_predicted, report.t_measured),
                check_echo_contrast(report)]
    return criteria, {"echo.json": [_json_bytes(report.as_dict())]}


def _run_collision_sweep(config: SimConfig):
    nus = config.sweep_nus  # ordered ascending by construction
    times, rhos, sups = collision_sweep(config.run, nus)
    columns = {"t": times, **{f"abs_rho_nu{nu:g}": np.abs(rho) for nu, rho in rhos.items()}}
    criteria = check_collision_sweep(nus, sups)
    summary = [_csv_bytes(["nu", "sup_diff"], [[nu, sups[nu]] for nu in nus])]
    return criteria, {"sweep.csv": _columns_csv(columns), "sweep_summary.csv": summary}


def _run_kernel_bounds(config: SimConfig):
    cases = random_phase_table(np.random.default_rng(config.seed), config.kernel_cases,
                               config.t_end, alpha=config.kernel_alpha)
    passed, measured = phase_table_gate(cases)
    criteria = [CriterionResult(
        None, "quadrature_under_bound", passed, measured,
        f"{PHASE_BOUND_GATE} on every case; exact_case_gap {EXACT_CASE_GATE}",
    )]
    files = {
        "kernel_table.csv": [_csv_bytes(
            ["k", "l", "alpha", "t", "numeric", "bound", "ratio"],
            # no ratio where the bound underflowed to 0
            [[*case, case[-2] / case[-1] if case[-1] else math.nan] for case in cases],
        )]
    }
    return criteria, files


def _run_norm_battery(config: SimConfig):
    report = norm_battery_report(config.seed)
    asserted = sorted(report.items.items())
    criteria = [check_norm_item(item, entry) for item, entry in asserted]
    rows = [[item, "asserted", e["cases"], e["slack"], e["passed"]] for item, e in asserted]
    rows += [
        [item, "observed", 0, str(note).replace(",", ";"), True]
        for item, note in sorted(report.observed.items())
    ]
    return criteria, {"norms.csv": [_csv_bytes(["item", "kind", "cases", "value", "passed"], rows)]}


def _run_stability_scan(config: SimConfig):
    params = config.run
    header = ["k", "margin", "re_eta", "im_eta"]
    try:
        report = stability_scan((1, params.k_max), params.nu, params.profile, params.interaction)
    except MarginNonPositive as err:
        refusal = CriterionResult(None, "positive_stability_margin", False,
                                  {"kappa": 0.0, "reason": str(err)}, "kappa > 0")
        return [refusal], {"stability.csv": [_csv_bytes(header, [])]}
    rows = [[k, m, re, im] for k, (m, re, im) in sorted(report.scan["margins"].items())]
    criteria = [
        CriterionResult(
            None, "positive_stability_margin", report.kappa > 0.0,
            {"kappa": report.kappa, "worst_mode": report.worst_mode,
             "worst_re_eta": report.worst_frequency.real,
             "worst_im_eta": report.worst_frequency.imag},
            "kappa > 0",
        )
    ]
    files = {"stability.csv": [_csv_bytes(header, rows)]}
    return criteria, files


# each scenario's worker is _run_<scenario>
_WORKERS = {name: globals()[f"_run_{name}"] for name in SCENARIOS}


@dataclass(frozen=True)
class RunReport:
    """Everything one scenario run produced, with a hash over its files."""

    scenario: str
    config_echo: dict
    criteria: tuple
    manifest: tuple
    content_hash: str
    out_dir: str
    wall_seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def lines(self):
        out = [c.line() for c in self.criteria]
        status = "PASS" if self.passed else "FAIL"
        out.append(
            f"{status} scenario {self.scenario}: {len(self.manifest)} files in "
            f"{self.out_dir} (sha256 {self.content_hash[:12]}...) "
            f"{self.wall_seconds:.1f} s"
        )
        return out

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "config": self.config_echo,
            "criteria": [c.as_dict() for c in self.criteria],
            "files": list(self.manifest),
            "content_hash": self.content_hash,
            "wall_seconds": self.wall_seconds,
        }


def _write_files(out: Path, files: dict):
    """Write each file chunk by chunk, in sorted name order, feeding every
    chunk to that file's sha256 and to the content hash (name, NUL, data per
    file) as it is written. A file whose chunks raise is removed.
    Returns (manifest, content hash)."""
    manifest = []
    hasher = hashlib.sha256()
    for name, chunks in sorted(files.items()):
        path = out / name
        digest = hashlib.sha256()
        size = 0
        hasher.update(name.encode("utf-8"))
        hasher.update(b"\0")
        try:
            with path.open("wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
                    digest.update(chunk)
                    hasher.update(chunk)
                    size += len(chunk)
        except BaseException:
            path.unlink(missing_ok=True)
            raise
        manifest.append({"name": name, "bytes": size, "sha256": digest.hexdigest()})
    return manifest, hasher.hexdigest()


def run_scenario(config: SimConfig) -> RunReport:
    """Execute one scenario, write its outputs, and report its criteria.

    Output files are written to config.out_dir next to a report.json; the
    content hash covers every file except the report itself. Toolkit errors
    escaping a worker, or raised while its outputs are written, are re-raised
    with the scenario name prepended; a file whose chunks raise is removed,
    and no report.json is written.
    """
    t0 = time.perf_counter()
    out = Path(config.out_dir)
    try:
        criteria, files = _WORKERS[config.scenario](config)
        out.mkdir(parents=True, exist_ok=True)
        manifest, content_hash = _write_files(out, files)
    except VpkitError as err:
        message = err.args[0] if err.args else ""
        err.args = (f"[{config.scenario}] {message}",) + err.args[1:]
        raise
    report = RunReport(
        scenario=config.scenario,
        config_echo={sec: dict(keys) for sec, keys in sorted(config.raw.items())},
        criteria=tuple(criteria),
        manifest=tuple(manifest),
        content_hash=content_hash,
        out_dir=str(out),
        wall_seconds=time.perf_counter() - t0,
    )
    (out / "report.json").write_bytes(_json_bytes(report.as_dict() | _peak_rss()))
    return report


def acceptance(suite: str = "all", out_dir: str | None = None):
    """Run an acceptance suite; write its summary when out_dir is given.

    Failures are content in the returned report, never exceptions; an unknown
    suite is refused by run_battery with ValidationError. The CSV
    summary excludes wall times so repeated runs are byte-identical; the
    JSON report carries them.
    """
    battery = run_battery(suite)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "acceptance_summary.csv").write_bytes(battery.summary_csv().encode("utf-8"))
        (out / "acceptance_report.json").write_bytes(_json_bytes(battery.as_dict() | _peak_rss()))
    return battery


# ---------------------------------------------------------------------------
# command line

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpkit",
        description="Kinetic toolkit runner: scenarios, scans, and acceptance checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # (name, help, config argument help, scenario forced); acceptance takes a suite
    for name, help_text, config_help, scenario in (
        ("run", "execute one scenario from a config file",
         "path to an INI scenario config", None),
        ("acceptance", "run the numbered acceptance battery", None, None),
        ("scan-stability", "stability-margin scan for the configured model",
         "config whose model sections define the scan", "stability_scan"),
        ("kernel-table", "phase-integral bound table for the configured kernel",
         "config whose [kernel] section sizes the table", "kernel_bounds"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="output directory (beats VPKIT_OUT and the config)")
        p.add_argument("--quiet", action="store_true", help="suppress the report lines")
        if config_help is None:
            p.add_argument(
                "suite", nargs="?", default="all",
                help=f"suite name (default all; known: {', '.join(sorted(SUITES))})",
            )
        else:
            p.add_argument("config", help=config_help)
            p.add_argument("--seed", type=int, help="override the config's seed")
            p.set_defaults(force_scenario=scenario)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "acceptance":
            report = acceptance(args.suite, args.out or os.environ.get("VPKIT_OUT") or "out")
        else:
            config = parse_config(args.config, force_scenario=args.force_scenario, seed=args.seed)
            out = args.out or os.environ.get("VPKIT_OUT") or config.out_dir
            raw = {**config.raw, "outputs": {**config.raw["outputs"], "directory": out}}
            report = run_scenario(replace(config, out_dir=out, raw=raw))
    except ParseError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ValidationError as err:
        for problem in err.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except VpkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if not args.quiet:
        for line in report.lines():
            print(line)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

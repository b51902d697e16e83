"""Command-line front end.

Subcommands: bounds, sweep, certify, fig3, simulate, audit.  Every flag has a
config-file equivalent (flat ``key = value`` lines, ``#`` comments); flags
take precedence over the file, the file over defaults.  ``--dump-config``
writes the fully resolved configuration, and re-running from that file
reproduces the output byte for byte.

Numerical output goes to ``--out`` (default stdout); a one-line human summary
goes to stderr.  Exit status: 0 on success, 1 when a certify run misses its
claimed gap, 2 on invalid input, 3 on an internal error.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
from collections import namedtuple
from dataclasses import asdict
from math import log10, sqrt

import numpy as np

from . import __version__, bounds, gaps, mc
from .errors import CcdpError
from .model import ChannelParams, decompose_states

Opt = namedtuple("Opt", "type default help")  # type converts flag and file text


def int_list(text):
    return tuple(int(t) for t in text.split(",") if t.strip())


def _format_opt(*formats):
    """The format option: the first format is the default, and no value
    outside the list is accepted."""
    def convert(text):
        if text not in formats:
            raise ValueError(f"must be one of {formats}, got {text!r}")
        return text
    return Opt(convert, formats[0], ", ".join(formats))


COMMANDS = ("bounds", "sweep", "certify", "fig3", "simulate", "audit")

_GRID_OPTS = {
    "M-values": Opt(int_list, (2, 3, 4, 5, 6, 7, 8), "comma list of receiver counts"),
    "P-min": Opt(float, 3.01, "power grid lower end"),
    "P-max": Opt(float, 1e4, "power grid upper end"),
    "P-points": Opt(int, 50, "log-spaced power grid points"),
    "c2-min": Opt(float, 3.01, "squared-gain grid lower end"),
    "c2-max": Opt(float, 1e6, "squared-gain grid upper end"),
    "c2-points": Opt(int, 50, "log-spaced squared-gain grid points"),
    "rho-values": Opt(str, "feasible", "'feasible' or comma list of correlations"),
    "rho-points": Opt(int, 13, "feasible correlations per M when rho-values=feasible"),
}

_POINT_OPTS = {
    "M": Opt(int, 2, "number of receivers"),
    "P": Opt(float, 10.0, "transmit power (linear)"),
    "c2": Opt(float, None, "squared state gain (primary knob)"),
    "c": Opt(float, None, "state gain; accepted and squared"),
    "rho": Opt(float, 0.0, "pairwise state correlation"),
}

_COMMON_OPTS = {"out": Opt(str, "-", "output path, '-' for stdout")}

OPTION_TABLES = {
    "bounds": {**_POINT_OPTS, **_COMMON_OPTS,
               "format": _format_opt("text", "csv", "json")},
    "sweep": {**_GRID_OPTS, **_COMMON_OPTS,
              "outer-variant": Opt(str, bounds.APPENDIX_FORM,
                                   "outer bound variant for the sweep"),
              "format": _format_opt("csv", "json")},
    "certify": {**_GRID_OPTS, **_COMMON_OPTS,
                "theorem": Opt(str, None, "one of Th3, Th4, Th5, Th6"),
                "variant": Opt(str, "appendix",
                               "appendix or theorem-statement outer"),
                "rows-out": Opt(str, None, "optional CSV path for the grid rows"),
                "format": _format_opt("json", "csv")},
    "fig3": {"P": Opt(float, 10.0, "transmit power"),
             "c-min": Opt(float, 0.1, "gain range lower end"),
             "c-max": Opt(float, 10.0, "gain range upper end"),
             "points": Opt(int, 200, "number of gain points"),
             **_COMMON_OPTS,
             "format": _format_opt("csv", "json")},
    "simulate": {**_POINT_OPTS, **_COMMON_OPTS,
                 "target": Opt(str, "san", "san, gp, scheme or decomposition"),
                 "alpha-bar": Opt(float, None,
                                  "pre-coded power fraction (default: optimal)"),
                 "samples": Opt(int, 1_000_000, "Monte Carlo sample count"),
                 "seed": Opt(int, 0, "stream seed"),
                 "lam": Opt(float, None, "inflation factor override (gp only)"),
                 "threads": Opt(int, None, "Monte Carlo worker threads "
                                           "(default: CCDP_THREADS or 1)"),
                 "format": _format_opt("json")},
    "audit": {**_GRID_OPTS, **_COMMON_OPTS,
              "families": Opt(str, "optimized",
                              "'optimized', 'all' or comma list of families"),
              "format": _format_opt("csv", "json")},
}


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def read_config_file(path):
    """Parse a flat 'key = value' config file; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CcdpError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def resolve_config(command, flag_values, file_values):
    """Merge defaults, config file and flags (flags win); one converter per
    option turns the text of a flag or of a file line into its value, and a
    text it rejects is a CcdpError naming the option."""
    table = OPTION_TABLES[command]
    unknown = set(file_values) - set(table) - {"command"}
    if unknown:
        raise CcdpError(
            f"unknown config keys {sorted(unknown)}; valid keys for "
            f"{command}: {sorted(table)}")
    resolved = {}
    for name, opt in table.items():
        text = flag_values.get(name)
        text = file_values.get(name) if text is None else text
        try:
            resolved[name] = opt.default if text is None else opt.type(text)
        except ValueError as exc:
            raise CcdpError(f"{name}: {exc}") from None
    if "threads" in table:
        if resolved["threads"] is None:
            env = os.environ.get("CCDP_THREADS", "1")
            try:
                resolved["threads"] = int(env)
            except ValueError:
                raise CcdpError(
                    f"CCDP_THREADS must be an integer, got {env!r}") from None
        if resolved["threads"] < 1:
            raise CcdpError(f"threads must be >= 1, got {resolved['threads']}")
    return resolved


def dump_config_text(command, resolved):
    lines = [f"command = {command}"]
    for name in sorted(resolved):
        if resolved[name] is None:
            continue
        lines.append(f"{name} = {_format_value(resolved[name])}")
    return "\n".join(lines) + "\n"


def config_hash(command, resolved):
    # Sink paths do not affect the numbers; keep the hash invariant to them
    # so identical computations are recognizable across output locations.
    material = {k: v for k, v in resolved.items() if k not in ("out", "rows-out")}
    return hashlib.sha256(
        dump_config_text(command, material).encode()).hexdigest()[:16]


def _paired(args, command):
    """args with each ``--name value`` of ``command`` as ``--name=value``: argparse
    reads a value such as -1e-05 as a flag (it takes plain negative numbers only)."""
    names = {f"--{name}" for name in (*OPTION_TABLES[command], "config", "dump-config")}
    out = []
    for arg in args:
        if out and out[-1] in names and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_parser(command):
    parser = argparse.ArgumentParser(prog=f"ccdp {command}", description=None)
    for name, opt in OPTION_TABLES[command].items():
        parser.add_argument(f"--{name}", default=None, dest=name, help=opt.help)
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--dump-config", default=None, dest="dump_config",
                        help="write the resolved config to this path")
    return parser


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------

def _write(text, out):
    # ``out`` is a path, "-" for stdout or a file open for writing.
    if out in (None, "-"):
        sys.stdout.write(text)
    elif isinstance(out, str):
        # 1 MiB at a time: a long text, such as a 17 MB audit JSON, is never
        # encoded as one more full-size copy.
        with open(out, "w", encoding="utf-8") as fh:
            for start in range(0, len(text), 1 << 20):
                fh.write(text[start:start + (1 << 20)])
    else:
        out.write(text)


def _write_csv(report, meta, out):
    # A report's CSV, written as gaps._csv_pieces yields it: never held whole.
    with (open(out, "w", encoding="utf-8") if out not in (None, "-")
          else contextlib.nullcontext(sys.stdout)) as fh:
        for piece in gaps._csv_pieces(report, meta):
            _write(piece, fh)


def _meta(command, resolved, with_seed=False):
    meta = {"tool_version": __version__,
            "config_hash": config_hash(command, resolved)}
    if with_seed:
        meta["seed"] = resolved.get("seed", 0)
    return meta


def _envelope(command, resolved, results, max_gap=None, certified=None,
              warnings=(), with_seed=False):
    cfg = {"command": command}
    cfg.update({k: (list(v) if isinstance(v, tuple) else v)
                for k, v in sorted(resolved.items())})
    cfg.update(_meta(command, resolved, with_seed))
    return json.dumps(
        {"config": cfg, "results": results, "maxGap": max_gap,
         "certified": certified, "warnings": list(warnings)},
        indent=2, allow_nan=True) + "\n"


def _params_from(opts):
    """(ChannelParams, squared gain) of the --c2 or --c option; a negative
    squared gain is checked as the gain itself, as the grid axes check it."""
    c2, c = opts.get("c2"), opts.get("c")
    if c2 is None and c is None:
        raise CcdpError("one of --c2 or --c is required")
    if c2 is not None and c is not None and abs(c * c - c2) > 1e-9:
        raise CcdpError(f"--c2 ({c2}) and --c ({c}) disagree")
    if c2 is None:
        c2 = c * c
    return ChannelParams(opts["M"], opts["P"], sqrt(c2) if c2 >= 0 else c2, opts["rho"]), c2


def _log_axis(opts, name, axis):
    """Log-spaced --<name>-points values between the ends, checked as the
    grid checks its own axis values."""
    lo, hi = (gaps.AXIS_CHECKS[axis](opts[f"{name}-{end}"]) for end in ("min", "max"))
    if not (lo > 0.0 and hi > 0.0):
        raise CcdpError(f"--{name}-min and --{name}-max must be > 0 on a log axis")
    values = np.logspace(log10(lo), log10(hi), _count(opts, f"{name}-points"))
    # The ends as given, not 10**log10(end); a single point is lo.
    values[-1], values[0] = hi, lo
    return tuple(values)


def _count(opts, name):
    if opts[name] < 1:
        raise CcdpError(f"{name} must be >= 1, got {opts[name]}")
    return opts[name]


def _grid_from(opts):
    rho_text = opts["rho-values"]
    rho_values = None if rho_text == "feasible" else tuple(
        float(t) for t in rho_text.split(",") if t.strip())
    return gaps.SweepGrid(
        m_values=opts["M-values"],
        p_values=_log_axis(opts, "P", "p_values"),
        c2_values=_log_axis(opts, "c2", "c2_values"),
        rho_values=rho_values,
        rho_points=opts["rho-points"],
        outer_variant=opts.get("outer-variant", bounds.APPENDIX_FORM),
    )


def _estimate_dict(est):
    return {"value": est.value, "stderr": est.stderr, "samples": est.samples,
            "closed_form": est.closed_form, "z_score": est.z_score}


# ---------------------------------------------------------------------------
# Command implementations.
# ---------------------------------------------------------------------------

def cmd_bounds(resolved):
    params, c2 = _params_from(resolved)
    # The sweep rows of this point, with the appendix and the stated outer.
    appendix, stated = (
        gaps.run_sweep(gaps.SweepGrid((params.M,), (params.P,), (c2,), (params.rho,),
                                      outer_variant=variant))
        for variant in (bounds.APPENDIX_FORM, bounds.THEOREM))
    row, theorem = appendix.row(0), stated.row(0)

    if resolved["format"] == "json":
        results = {
            "inner": {"value": row.inner, "branch": row.inner_branch},
            "outer_appendix": {"value": row.outer, "branch": row.outer_branch,
                               "variant": row.variant},
            "outer_theorem": {"value": theorem.outer, "branch": theorem.outer_branch,
                              "variant": theorem.variant},
            "gap": row.gap,
        }
        _write(_envelope("bounds", resolved, results, max_gap=row.gap), resolved["out"])
    elif resolved["format"] == "csv":
        _write_csv(appendix, _meta("bounds", resolved), resolved["out"])
    else:
        _write(
            f"inner {row.inner:.6f}\n"
            f"outer(appendix) {row.outer:.6f}\n"
            f"outer(theorem) {theorem.outer:.6f}\n"
            f"gap {row.gap:.6f}\n",
            resolved["out"])
    print(f"bounds: M={params.M} P={params.P} c2={params.c2} rho={params.rho} "
          f"gap={row.gap:.6f}", file=sys.stderr)
    return 0


def cmd_sweep(resolved):
    grid = _grid_from(resolved)
    print(f"sweep: {grid.size()} grid points", file=sys.stderr)
    report = gaps.run_sweep(grid)
    if resolved["format"] == "json":
        _write(_envelope("sweep", resolved, gaps.report_summary(report),
                         max_gap=report.max_gap, warnings=report.warnings),
               resolved["out"])
    else:
        _write_csv(report, _meta("sweep", resolved), resolved["out"])
    print(f"sweep: maxGap={report.max_gap:.6f} at "
          f"{gaps.report_summary(report)['argmax']}", file=sys.stderr)
    return 0


def cmd_certify(resolved):
    theorem = resolved["theorem"]
    if theorem is None:
        raise CcdpError("--theorem is required (one of Th3, Th4, Th5, Th6)")
    variant = resolved["variant"]
    # An axis set away from its default is certified as given, so one
    # outside the theorem's model is a WrongModel, not silently replaced.
    keep = [axis for name, axis in (("M-values", "m_values"),
                                    ("rho-values", "rho_values"))
            if resolved[name] != _GRID_OPTS[name].default]
    grid = gaps.theorem_grid(theorem, _grid_from(resolved), keep)
    report = gaps.certify_theorem(theorem, grid, variant_kind=variant)
    if resolved["rows-out"]:
        _write_csv(report, _meta("certify", resolved), resolved["rows-out"])
    if resolved["format"] == "csv":
        _write_csv(report, _meta("certify", resolved), resolved["out"])
    else:
        _write(_envelope("certify", resolved, gaps.report_summary(report),
                         max_gap=report.max_gap, certified=report.certified,
                         warnings=report.warnings),
               resolved["out"])
    print(f"certify {theorem} ({variant}): maxGap={report.max_gap:.6f} "
          f"certified={'true' if report.certified else 'false'}",
          file=sys.stderr)
    return 0 if report.certified else 1


def cmd_fig3(resolved):
    c_values = np.linspace(resolved["c-min"], resolved["c-max"],
                           _count(resolved, "points"))
    rows = gaps.fig3_curve(resolved["P"], c_values)
    if resolved["format"] == "json":
        results = [{"c": c, "raw_outer": r, "optimized_outer": o}
                   for c, r, o in rows]
        _write(_envelope("fig3", resolved, results), resolved["out"])
    else:
        lines = [f"# {k}: {v}" for k, v in _meta("fig3", resolved).items()]
        lines.append("c,raw_outer,optimized_outer")
        lines += [f"{c!r},{r!r},{o!r}" for c, r, o in rows]
        _write("\n".join(lines) + "\n", resolved["out"])
    print(f"fig3: P={resolved['P']} points={resolved['points']}", file=sys.stderr)
    return 0


def cmd_simulate(resolved):
    params, _ = _params_from(resolved)
    target = resolved["target"]
    ab = resolved["alpha-bar"]
    if ab is None:
        ab = bounds.alpha_star(params).alpha_bar
    config = mc.SimulationConfig(params=params, samples=resolved["samples"],
                                 seed=resolved["seed"], alpha_bar=ab,
                                 target=target)
    threads = resolved["threads"]
    if target == "san":
        results = _estimate_dict(mc.estimate_san_rate(config, threads=threads))
    elif target == "gp":
        results = _estimate_dict(
            mc.estimate_gp_rate(config, lam=resolved["lam"], threads=threads))
    elif target == "scheme":
        report = mc.verify_scheme_rate(config, threads=threads)
        results = {
            "combined_rate": report.combined_rate,
            "combined_stderr": report.combined_stderr,
            "closed_form": report.closed_form,
            "z_score": report.z_score,
            "per_receiver": [
                {"san": _estimate_dict(san),
                 "gp": None if gp is None else _estimate_dict(gp)}
                for san, gp in report.per_receiver],
        }
    elif target == "decomposition":
        decomp = decompose_states(params)
        err = mc.verify_decomposition_stats(decomp, resolved["samples"],
                                            resolved["seed"])
        results = {"kind": decomp.kind,
                   "coefficients": {k: float(v)
                                    for k, v in decomp.coefficients.items()},
                   "max_abs_covariance_error": err}
    results["alpha_bar"] = ab
    _write(_envelope("simulate", resolved, results, with_seed=True),
           resolved["out"])
    print(f"simulate {target}: samples={resolved['samples']} "
          f"seed={resolved['seed']}", file=sys.stderr)
    return 0


def cmd_audit(resolved):
    grid = _grid_from(resolved)
    fam_text = resolved["families"]
    if fam_text == "optimized":
        families = gaps.OPTIMIZED_FAMILIES
    elif fam_text == "all":
        families = tuple(gaps.AUDIT_FAMILIES)
    else:
        families = tuple(t.strip() for t in fam_text.split(",") if t.strip())
        unknown = set(families) - set(gaps.AUDIT_FAMILIES)
        if unknown:
            raise CcdpError(f"unknown audit families {sorted(unknown)}; "
                            f"valid: {sorted(gaps.AUDIT_FAMILIES)}")
    violations = gaps.monotonicity_audit(grid, families)
    if resolved["format"] == "json":
        results = [asdict(v) for v in violations]
        _write(_envelope("audit", resolved, results), resolved["out"])
    else:
        lines = [f"# {k}: {v}" for k, v in _meta("audit", resolved).items()]
        lines.append("family,M,P,rho,c_low,c_high,increase")
        lines += [f"{v.family},{v.M},{v.P!r},{v.rho!r},{v.c_low!r},"
                  f"{v.c_high!r},{v.increase!r}" for v in violations]
        _write("\n".join(lines) + "\n", resolved["out"])
    print(f"audit: {len(violations)} violations over {len(families)} families",
          file=sys.stderr)
    return 0


_HANDLERS = {
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
    "certify": cmd_certify,
    "fig3": cmd_fig3,
    "simulate": cmd_simulate,
    "audit": cmd_audit,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("-h", "--help"):
        print(f"ccdp {__version__} - capacity bound engine\n"
              f"usage: ccdp {{{','.join(COMMANDS)}}} [options]\n"
              f"       ccdp --config FILE   (command taken from the file)")
        return 0

    command, rest = None, argv
    if argv and argv[0] in COMMANDS:
        command, rest = argv[0], argv[1:]

    try:
        # Allow the command to come from a config file.
        file_values = {}
        if command is None:
            if "--config" not in argv:
                sys.stderr.write(
                    f"usage: ccdp {{{','.join(COMMANDS)}}} [options]\n")
                return 2
            at = argv.index("--config") + 1
            if at == len(argv):
                raise CcdpError("--config needs a file path")
            path = argv[at]
            file_values = read_config_file(path)
            command = file_values.get("command")
            if command not in COMMANDS:
                raise CcdpError(
                    f"config file {path} must set command to one of {COMMANDS}")

        parser = _build_parser(command)
        ns = parser.parse_args(_paired(rest, command))
        flag_values = {name: getattr(ns, name) for name in OPTION_TABLES[command]}
        if ns.config and not file_values:
            file_values = read_config_file(ns.config)
        if file_values.get("command", command) != command:
            raise CcdpError(
                f"config file command={file_values['command']} does not match "
                f"subcommand {command}")
        resolved = resolve_config(command, flag_values, file_values)
        if ns.dump_config:
            with open(ns.dump_config, "w", encoding="utf-8") as fh:
                fh.write(dump_config_text(command, resolved))
        return _HANDLERS[command](resolved)
    except Exception as exc:  # CcdpError is a ValueError
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2 if isinstance(exc, (ValueError, OSError)) else 3


if __name__ == "__main__":
    sys.exit(main())

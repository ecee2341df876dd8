"""Span names shared by the tracer and the benchmark, and the per-layer
metrics derived from the tracer's totals.  Imports nothing from polyconnect,
so the benchmark process itself never loads the package."""

FAMILIES = ("hermite", "laguerre", "shifted_jacobi", "jacobi_at_one_minus_x")
ARITH = ("__add__", "__sub__", "__mul__")
IDENTITIES = (
    "bilinear_lhs",
    "fields_ismail_32_rhs",
    "fields_ismail_13_rhs",
    "fields_wimp_terminating",
    "fields_wimp_luke_terminating",
)
SWEEPS = (
    "sweep_even_odd_split",
    "sweep_bilinear_plain",
    "sweep_bilinear_weighted",
    "sweep_wimp_terminating",
    "sweep_luke_terminating",
)
#: Calls the sweeps make once per random draw, whether or not the draw is kept.
DRAW_SPANS = (
    "hypseries.HypSeries",
    "expansions.bilinear_lhs",
    "expansions.fields_wimp_terminating",
    "expansions.fields_wimp_luke_terminating",
)


def merge(total: dict, part: dict) -> dict:
    """Add one process's ``aggregate`` into a running total."""
    for key in ("calls", "self_s", "errors", "values"):
        bucket = total.setdefault(key, {})
        for name, value in part[key].items():
            bucket[name] = bucket.get(name, 0) + value
    bucket = total.setdefault("max", {})
    for name, value in part["max"].items():
        bucket[name] = max(bucket.get(name, 0), value)
    total["spans"] = total.get("spans", 0) + part["spans"]
    return total


def _sum(bucket, names):
    return sum(bucket.get(name, 0) for name in names)


def _layer(bucket, layer):
    return sum(v for name, v in bucket.items() if name.startswith(layer + "."))


def layer_metrics(agg: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from merged totals."""
    calls, self_s, values = agg.get("calls", {}), agg.get("self_s", {}), agg.get("values", {})
    errors = agg.get("errors", {})
    families = [f"polybases.{name}" for name in FAMILIES]
    arith = [f"polybases.Poly.{name}" for name in ARITH]
    identities = [f"expansions.{name}" for name in IDENTITIES]
    hits, misses = values.get("polybases.cache_hits", 0), values.get("polybases.cache_misses", 0)
    draws = _sum(calls, DRAW_SPANS)
    cases = values.get("sweeps.cases", 0)
    return {
        "rationals.pochhammer_calls": (calls.get("rationals.pochhammer", 0), "count"),
        "rationals.pochhammer_self_s": (self_s.get("rationals.pochhammer", 0.0), "s"),
        "rationals.max_coeff_bits": (agg.get("max", {}).get("rationals.max_coeff_bits", 0), "bits"),
        "hypseries.series_calls": (calls.get("hypseries.series_coefficients", 0), "count"),
        "hypseries.series_terms": (values.get("hypseries.series_terms", 0), "count"),
        "hypseries.self_s": (_layer(self_s, "hypseries"), "s"),
        "hypseries.errors": (errors.get("hypseries", 0), "count"),
        "polybases.family_calls": (_sum(calls, families), "count"),
        "polybases.family_self_s": (_sum(self_s, families), "s"),
        "polybases.family_cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "polybases.poly_arith_calls": (_sum(calls, arith), "count"),
        "polybases.poly_arith_self_s": (_sum(self_s, arith), "s"),
        "connection.closed_form_calls": (calls.get("connection.closed_form_connection", 0), "count"),
        "connection.closed_form_self_s": (self_s.get("connection.closed_form_connection", 0.0), "s"),
        "connection.oracle_calls": (calls.get("connection.connection_oracle", 0), "count"),
        "connection.oracle_self_s": (self_s.get("connection.connection_oracle", 0.0), "s"),
        "connection.reconstruct_calls": (calls.get("connection.reconstruct", 0), "count"),
        "connection.reconstruct_self_s": (self_s.get("connection.reconstruct", 0.0), "s"),
        "connection.verify_entries": (values.get("connection.verify_entries", 0), "count"),
        "connection.mismatch_entries": (values.get("connection.mismatch_entries", 0), "count"),
        "connection.error_entries": (values.get("connection.error_entries", 0), "count"),
        "expansions.identity_calls": (_sum(calls, identities), "count"),
        "expansions.self_s": (_layer(self_s, "expansions"), "s"),
        "sweeps.draws_attempted": (draws, "count"),
        "sweeps.draws_skipped": (draws - cases, "count"),
        "sweeps.useful_ratio": (cases / draws if draws else 0.0, "ratio"),
        "sweeps.self_s": (_layer(self_s, "sweeps"), "s"),
        "cli.requests": (calls.get("cli.run", 0), "count"),
        "cli.self_s": (self_s.get("cli.run", 0.0), "s"),
    }

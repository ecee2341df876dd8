"""Outside-in span tracer for the benchmark's traced runs.

``install`` replaces the public names of each polyconnect module where their
callers look them up (module globals and class attributes) with wrappers
that record one span per call, so the program itself is not edited.  Spans
stay in memory as (id, parent, request, name, start, end) and are written
out when the process ends.  A span's self time is its duration minus the
durations of its direct children.

Span names are ``<layer>.<function>``; the layers are the package modules
rationals, hypseries, polybases, connection, expansions, sweeps and cli.
"""

import time
from collections import Counter, defaultdict

from layers import ARITH, FAMILIES, IDENTITIES, SWEEPS
from polyconnect import cli, connection, expansions, hypseries, polybases, rationals, sweeps
from polyconnect.errors import PolyConnectError


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = -1
        self.errors = Counter()
        self.values = Counter()
        self.max_values = Counter()
        self._last_error = {}
        self._caches = {}

    def wrap(self, name, fn, on_return=None):
        spans, stack = self.spans, self._stack
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except PolyConnectError as exc:
                # one error propagating through nested spans counts once per layer
                if self._last_error.get(layer) is not exc:
                    self._last_error[layer] = exc
                    self.errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, self.request, name, start, end)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def patch(self, owner, attr, name, on_return=None):
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, self.wrap(name, fn, on_return))

    def _coeff_bits(self, result):
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in result.coefficients),
            default=0,
        )
        self.max_values["rationals.max_coeff_bits"] = max(
            self.max_values["rationals.max_coeff_bits"], bits
        )

    def _report(self, report):
        for entry in report.entries:
            self.values["connection.verify_entries"] += 1
            if entry.error is not None:
                self.values["connection.error_entries"] += 1
            elif not entry.match or entry.first_mismatch is not None:
                self.values["connection.mismatch_entries"] += 1

    def _terms(self, coefficients):
        self.values["hypseries.series_terms"] += len(coefficients)

    def _cases(self, entries):
        self.values["sweeps.cases"] += len(entries)

    def install(self):
        """Wrap every layer's public names at the places they are called from."""
        for module in (connection, polybases, expansions, rationals):
            self.patch(module, "pochhammer", "rationals.pochhammer")
        for module in (hypseries, polybases):
            self.patch(module, "series_coefficients", "hypseries.series_coefficients", self._terms)
        for module in (connection, expansions, sweeps):
            self.patch(module, "evaluate_terminating", "hypseries.evaluate_terminating")
        self.patch(sweeps, "split_even_odd", "hypseries.split_even_odd")
        self.patch(sweeps, "HypSeries", "hypseries.HypSeries")
        for name in FAMILIES:
            self._caches[name] = getattr(polybases, name)
            self.patch(connection, name, f"polybases.{name}")
        self.cache_start = self._cache_totals()
        for name in ARITH:
            self.patch(polybases.Poly, name, f"polybases.Poly.{name}")
        for module in (cli, connection):
            self.patch(module, "closed_form_connection", "connection.closed_form_connection",
                       self._coeff_bits)
            self.patch(module, "connection_oracle", "connection.connection_oracle",
                       self._coeff_bits)
        self.patch(connection.ConnectionResult, "reconstruct", "connection.reconstruct")
        self.patch(cli, "verify_theorem", "connection.verify_theorem", self._report)
        for name in IDENTITIES:
            self.patch(sweeps, name, f"expansions.{name}")
        originals = {name: getattr(sweeps, name) for name in SWEEPS}
        for name in SWEEPS:
            self.patch(sweeps, name, f"sweeps.{name}", self._cases)
        for lemma, fn in list(sweeps.LEMMA_SWEEPS.items()):
            for name, original in originals.items():
                if fn is original:
                    sweeps.LEMMA_SWEEPS[lemma] = getattr(sweeps, name)
        self.patch(cli, "run", "cli.run")

    def _cache_totals(self):
        hits = misses = 0
        for fn in self._caches.values():
            info = fn.cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        return hits, misses

    def aggregate(self) -> dict:
        """Raw per-process totals; ``merge`` adds them and ``layer_metrics`` derives ratios."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        for sid, _, _, name, start, end in self.spans:
            calls[name] += 1
            self_s[name] += end - start - child[sid]
        hits, misses = self._cache_totals()
        values = Counter(self.values)
        values["polybases.cache_hits"] = hits - self.cache_start[0]
        values["polybases.cache_misses"] = misses - self.cache_start[1]
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "errors": dict(self.errors),
            "values": dict(values),
            "max": dict(self.max_values),
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("id,parent,request,name,start,end\n")
            for span in self.spans:
                out.write("%d,%d,%d,%s,%.9f,%.9f\n" % span)

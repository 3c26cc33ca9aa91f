"""Prometheus text exposition: render and parse.

One function pair. :func:`render_prometheus` turns the server's live
telemetry (MetricsRegistry counters/gauges + the live-histogram map)
into Prometheus text exposition format version 0.0.4 — the format every
scraper, including ``repro top`` and the CI smoke job, consumes.
:func:`parse_prometheus_text` is the inverse, used by the dashboard,
the tests, and the CI assertion that the exposition actually parses.

No client library is involved on either side: the format is a stable,
line-oriented text protocol and the stdlib is enough.

Naming: registry metrics use ``/``-separated paths (``serve/requests``)
which are not legal Prometheus names; :func:`sanitize_metric_name` maps
them to ``repro_serve_requests`` (prefix + path with every illegal
character folded to ``_``).
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List, Mapping, Optional

from .live import BucketHistogram

__all__ = [
    "sanitize_metric_name",
    "render_prometheus",
    "parse_prometheus_text",
    "sample_value",
]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_ILLEGAL = re.compile(r"[^a-zA-Z0-9_:]")

#: every repro metric family is prefixed so a shared Prometheus server
#: can tell our families from anything else it scrapes
PREFIX = "repro_"


def sanitize_metric_name(name: str, prefix: str = PREFIX) -> str:
    """Map a registry path like ``serve/requests_total`` to a legal name."""
    candidate = prefix + _ILLEGAL.sub("_", name)
    if not _NAME_OK.match(candidate):
        candidate = "_" + candidate
    return candidate


def _fmt_value(v: float) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "+Inf" if v > 0 else "-Inf"
        if math.isnan(v):
            return "NaN"
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
    return repr(float(v)) if isinstance(v, float) else str(v)


def render_prometheus(
    counters: Mapping[str, float] = (),
    gauges: Mapping[str, float] = (),
    histograms: Mapping[str, BucketHistogram] = (),
    help_text: Mapping[str, str] = (),
    prefix: str = PREFIX,
) -> str:
    """Render metric families as Prometheus text exposition.

    * ``counters`` → ``TYPE counter`` samples (names should already end
      in ``_total`` by convention; we do not rename).
    * ``gauges`` → ``TYPE gauge`` samples.
    * ``histograms`` → full cumulative-bucket families: ``_bucket`` with
      ``le`` labels (cumulative counts, ``+Inf`` last), ``_sum``,
      ``_count``. These merge correctly under Prometheus aggregation
      because every process shares the same bucket ladder.
    """
    counters = dict(counters)
    gauges = dict(gauges)
    histograms = dict(histograms)
    help_text = dict(help_text)
    out: List[str] = []

    def emit(name: str, kind: str, samples: List[str]) -> None:
        full = sanitize_metric_name(name, prefix)
        help_line = help_text.get(name)
        if help_line:
            out.append(f"# HELP {full} {help_line}")
        out.append(f"# TYPE {full} {kind}")
        out.extend(samples)

    for name in sorted(counters):
        full = sanitize_metric_name(name, prefix)
        emit(name, "counter", [f"{full} {_fmt_value(float(counters[name]))}"])
    for name in sorted(gauges):
        full = sanitize_metric_name(name, prefix)
        emit(name, "gauge", [f"{full} {_fmt_value(float(gauges[name]))}"])
    for name in sorted(histograms):
        hist = histograms[name]
        full = sanitize_metric_name(name, prefix)
        samples: List[str] = []
        cumulative = 0
        for bound, count in zip(hist.bounds, hist.counts):
            cumulative += count
            samples.append(
                f'{full}_bucket{{le="{_fmt_value(float(bound))}"}} {cumulative}'
            )
        samples.append(f'{full}_bucket{{le="+Inf"}} {hist.count}')
        samples.append(f"{full}_sum {_fmt_value(hist.total)}")
        samples.append(f"{full}_count {hist.count}")
        emit(name, "histogram", samples)

    return "\n".join(out) + "\n" if out else ""


_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+\d+)?$"  # optional timestamp, ignored
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_value(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    return float(raw)


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse exposition text into ``{family: {type, help, samples}}``.

    Samples are ``(name, labels, value)`` tuples under the *family*
    name (the ``TYPE`` line's name; ``_bucket``/``_sum``/``_count``
    suffixed samples attach to their histogram family). Malformed lines
    raise ``ValueError`` — the CI assertion wants a strict parser.
    """
    families: Dict[str, Dict[str, Any]] = {}
    current: Optional[str] = None

    def family_for(sample_name: str) -> str:
        if current:
            if sample_name == current or (
                families[current]["type"] == "histogram"
                and sample_name in (
                    current + "_bucket", current + "_sum", current + "_count"
                )
            ):
                return current
        return sample_name

    for line_number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_line = rest.partition(" ")
            families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []}
            )["help"] = help_line
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            kind = kind.strip()
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ValueError(f"line {line_number}: bad metric type {kind!r}")
            families.setdefault(
                name, {"type": "untyped", "help": "", "samples": []}
            )["type"] = kind
            current = name
            continue
        if line.startswith("#"):
            continue  # comment
        m = _SAMPLE.match(line)
        if not m:
            raise ValueError(f"line {line_number}: unparseable sample {line!r}")
        sample_name = m.group("name")
        labels: Dict[str, str] = {}
        if m.group("labels"):
            for lk, lv in _LABEL.findall(m.group("labels")):
                labels[lk] = lv.replace('\\"', '"').replace("\\\\", "\\")
        value = _parse_value(m.group("value"))
        fam = family_for(sample_name)
        families.setdefault(
            fam, {"type": "untyped", "help": "", "samples": []}
        )["samples"].append((sample_name, labels, value))
    return families


def sample_value(
    families: Mapping[str, Dict[str, Any]],
    family: str,
    labels: Optional[Mapping[str, str]] = None,
    suffix: str = "",
) -> Optional[float]:
    """Convenience lookup: the value of one sample, or None."""
    fam = families.get(family)
    if fam is None:
        return None
    want_name = family + suffix
    for name, sample_labels, value in fam["samples"]:
        if name != want_name:
            continue
        if labels is not None and dict(sample_labels) != dict(labels):
            continue
        return value
    return None

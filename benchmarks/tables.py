"""Shared table generators for the benchmark harness.

Each ``table_*`` function regenerates one of the paper's tables or
figures as ``(header_line, rows, footnote)`` where rows are lists of
formatted strings, and returns the raw data alongside so the benchmark
assertions (and EXPERIMENTS.md) can check the reproduced shape.

The benchmarks call these under ``pytest-benchmark`` for timing and
print the rendered tables; ``pytest benchmarks/ --benchmark-disable
-s`` prints them without timing.
"""

from __future__ import annotations

from repro.apps.battleship import play_and_measure
from repro.apps.bzip2 import measure_compression_flow
from repro.apps.countpunct import (PAPER_INPUT, measure_flowlang,
                                   measure_python)
from repro.apps.imagelib import measure_transform, synthetic_portrait
from repro.apps.pi import workload_of_size
from repro.apps.scheduler import measure_meeting_request
from repro.apps.sshauth import run_authentication
from repro.apps.xserver import measure_draw_text, measure_paste
from repro.core.combine import demonstrate_inconsistency, kraft_sum


def render(title, header, rows, footnote=None):
    lines = ["", "### %s" % title, "", header, "-" * len(header)]
    lines.extend(rows)
    if footnote:
        lines.append(footnote)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure 3

FIG3_SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def table_fig3(sizes=FIG3_SIZES):
    """Flow through the compressor vs. input size (Figure 3)."""
    rows = []
    data_points = []
    for size in sizes:
        result = measure_compression_flow(workload_of_size(size))
        data_points.append(result)
        rows.append("%8d %10d %12d %10d" % (
            size, result.input_bits, result.payload_output_bits,
            result.flow_bits))
    text = render(
        "Figure 3: bzip2-analog flow vs input size (log-log in the paper)",
        "%8s %10s %12s %10s" % ("bytes", "in-bits", "out-bits", "flow"),
        rows,
        "expected shape: flow == min(in-bits, ~out-bits)")
    return text, data_points


# ----------------------------------------------------------------------
# Figure 4 + Section 8 headline numbers

def table_fig4():
    """The case-study inventory with measured headline flows."""
    entries = []

    game = play_and_measure([(7, 7), (0, 0)])
    entries.append(("battleship", "ship locations",
                    "%d bits (miss=1, hit=2)" % game.bits, game.bits))

    auth, ok = run_authentication()
    entries.append(("sshauth", "RSA private key",
                    "%d bits (the MD5 digest)" % auth.bits, auth.bits))

    pix = measure_transform("pixelate", image=synthetic_portrait(15))
    entries.append(("imagelib", "original image details",
                    "%d of %d bits (pixelate 5x5)"
                    % (pix.bits, pix.input_bits), pix.bits))

    sched, _ = measure_meeting_request([(600, 720)])
    entries.append(("scheduler", "schedule details",
                    "%d bits (quantized slots)" % sched.bits, sched.bits))

    draw, _ = measure_draw_text(b"Hello, world!")
    entries.append(("xserver", "displayed text",
                    "%d bits (bounding box)" % draw.bits, draw.bits))

    rows = ["%-12s %-24s %s" % (name, secret, measured)
            for name, secret, measured, _ in entries]
    text = render(
        "Figure 4 / Section 8: case studies and measured flows",
        "%-12s %-24s %s" % ("program", "secret data", "measured"),
        rows)
    return text, {name: bits for name, _, _, bits in entries}


# ----------------------------------------------------------------------
# Figure 5

def table_fig5(size=25):
    image = synthetic_portrait(size)
    rows = []
    results = {}
    for name in ("pixelate", "blur", "swirl"):
        audit = measure_transform(name, image=image)
        results[name] = audit.bits
        rows.append("%-9s %8d %12d  %5.1f%%" % (
            name, audit.bits, audit.input_bits,
            100.0 * audit.bits / audit.input_bits))
    text = render(
        "Figure 5: information preserved by image transforms "
        "(paper: 1464 / 1720 / 375120 of 375120)",
        "%-9s %8s %12s  %6s" % ("transform", "bits", "input-bits", "frac"),
        rows)
    return text, results


# ----------------------------------------------------------------------
# Section 3.2

def table_sec32():
    unsound = [min(8, n + 1) for n in range(256)]
    verdict = demonstrate_inconsistency(unsound)
    binary = kraft_sum([8] * 256)
    rows = [
        "independent min(8, n+1) cuts : Kraft sum = %s  (%s)"
        % (verdict["kraft_sum"], "sound" if verdict["sound"]
           else "UNSOUND, as the paper shows"),
        "consistent 8-bit binary cut  : Kraft sum = %s  (sound)" % binary,
    ]
    text = render(
        "Section 3.2: Kraft-inequality check of inconsistent cuts "
        "(paper: 503/256 > 1)",
        "analysis of the 256 possible runs of the unary printer", rows)
    return text, verdict


# ----------------------------------------------------------------------
# count_punct (Figure 2) in both frontends

def table_fig2():
    flowlang = measure_flowlang(PAPER_INPUT)
    python = measure_python(PAPER_INPUT)
    rows = [
        "FlowLang VM frontend : %d bits (tainting bound %d)"
        % (flowlang.bits, flowlang.report.tainted_output_bits),
        "Python frontend      : %d bits" % python.bits,
        "minimum cut          : %s" % ", ".join(
            "%d-bit %s" % (cap, kind)
            for kind, _, _, cap in sorted(
                measure_flowlang(PAPER_INPUT, collapse="none").report.cut,
                key=lambda e: e[3])),
    ]
    text = render(
        "Figure 2 / Section 2.4: count_punct (paper: 9 bits; cut = "
        "1-bit compare + 8-bit count; tainting 64 bits)",
        "input %r" % PAPER_INPUT, rows)
    return text, {"flowlang": flowlang.bits, "python": python.bits}

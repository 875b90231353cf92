"""Figure 3 measurement: flow through the compressor vs. input size.

Marks an input as entirely secret, compresses it under tracking, writes
the compressed stream to the public output, and measures the max-flow
bound.  The paper's expectation: for compressible inputs the bound
matches the compressed-output size (minus the fixed header); for
incompressible (tiny) inputs it matches the input size.
"""

from __future__ import annotations

from ... import obs
from ...pytrace import Session
from .compressor import DEFAULT_BLOCK_SIZE, MAGIC, compress, compressed_size


class CompressionFlowResult:
    """One Figure 3 data point."""

    def __init__(self, input_bytes, output_bytes, flow_bits, report):
        self.input_bytes = input_bytes
        self.output_bytes = output_bytes
        self.flow_bits = flow_bits
        self.report = report

    @property
    def input_bits(self):
        return 8 * self.input_bytes

    @property
    def payload_output_bits(self):
        """Output bits excluding the fixed (public) magic header."""
        return 8 * (self.output_bytes - len(MAGIC))

    def __repr__(self):
        return ("CompressionFlowResult(in=%dB, out=%dB, flow=%d bits)"
                % (self.input_bytes, self.output_bytes, self.flow_bits))


def measure_compression_flow(data, block_size=DEFAULT_BLOCK_SIZE,
                             collapse="location", online=False,
                             backend=None):
    """Compress secret ``data``; measure the information flow.

    With ``online=True`` the trace graph is collapsed by ``collapse``
    *while* the compressor runs (Section 5.2 online), so the live graph
    stays proportional to code coverage instead of trace length; the
    resulting report is equivalent to the post-hoc collapse.
    ``backend`` selects the shadow-propagation backend
    (``"reference"``/``"fast"``/``None`` for auto; see
    ``docs/backends.md``) -- results are bit-identical either way.

    Returns a :class:`CompressionFlowResult`.
    """
    session = Session(online_collapse=collapse if online else None,
                      backend=backend)
    with obs.get_metrics().phase("trace"):
        secret = session.secret_bytes(bytes(data))
        out = compress(secret, session=session, block_size=block_size)
        session.output_bytes(out)
    report = session.measure(collapse=collapse)
    return CompressionFlowResult(len(data), len(out), report.bits, report)

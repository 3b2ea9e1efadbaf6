"""In-memory spans around the public calls into each layer.

The traced run wraps the calls a device, a gateway or a client makes
into the program's layers; the end-to-end runs install nothing.  A span
is ``(name, start, end, parent, round, size)``: ``parent`` is the index
of the enclosing span on the same thread (``-1`` at top level), ``round``
the generator's round id current on that thread, and ``size`` what the
call handled: payload bytes for codec spans, samples for ``observe``,
messages for a check-in batch.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Tuple

Span = Tuple[str, float, float, int, Optional[int], int]

_perf = time.perf_counter


class SpanRecorder:
    """Per-thread span lists, merged on read; wrappers are removable."""

    def __init__(self):
        self._local = threading.local()
        self._threads: List[List[Span]] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object, bool]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            local.round = None
            with self._lock:
                self._threads.append(local.spans)
        return local

    def set_round(self, round_id: Optional[int]) -> None:
        self._state().round = round_id

    def span(self, name: str):
        """Context manager for a span in the benchmark's own code."""
        return _SpanContext(self, name)

    def _open(self, name: str):
        local = self._state()
        spans = local.spans
        parent = local.stack[-1] if local.stack else -1
        index = len(spans)
        spans.append((name, _perf(), 0.0, parent, local.round, 0))
        local.stack.append(index)
        return local, index

    def _close(self, local, index: int, size: int = 0) -> None:
        local.stack.pop()
        name, start, _, parent, round_id, _ = local.spans[index]
        local.spans[index] = (name, start, _perf(), parent, round_id, size)

    def wrap(self, owner, attribute: str, name: str,
             size_of: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``owner`` may be a class, a module or an instance.  ``size_of``
        maps ``(args, result)`` to the size stored on the span.
        """
        own = attribute in vars(owner)  # else an instance shadows its class
        original = vars(owner)[attribute] if own else getattr(owner, attribute)
        recorder = self

        def wrapper(*args, **kwargs):
            local, index = recorder._open(name)
            size = 0
            try:
                result = original(*args, **kwargs)
                if size_of is not None:
                    size = size_of(args, result)
                return result
            finally:
                recorder._close(local, index, size)

        wrapper.__wrapped__ = original
        self._patches.append((owner, attribute, original, own))
        setattr(owner, attribute, wrapper)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def threads(self) -> List[List[Span]]:
        """Each thread's spans; ``parent`` indexes into the same list."""
        with self._lock:
            return [list(spans) for spans in self._threads]


class _SpanContext:
    __slots__ = ("_recorder", "_name", "_local", "_index")

    def __init__(self, recorder: SpanRecorder, name: str):
        self._recorder = recorder
        self._name = name

    def __enter__(self):
        self._local, self._index = self._recorder._open(self._name)
        return self

    def __exit__(self, *exc_info):
        self._recorder._close(self._local, self._index)
        return False


def _payload_size(args, result) -> int:
    """Bytes of the encoded side of a codec call (str or bytes)."""
    encoded = result if isinstance(result, (str, bytes)) else args[0]
    return len(encoded)


def wrap_client_layers(recorder: SpanRecorder, gateway=None) -> None:
    """Spans for serve.client, serve.wire and (optionally) gateway.edge."""
    from repro.serve import client as client_module
    from repro.serve import wire

    # RemoteDevice.join enrolls through join_info (join delegates to it).
    recorder.wrap(client_module.ServiceClient, "join_info", "client.join")
    for method in ("checkout", "checkins"):
        recorder.wrap(client_module.ServiceClient, method, f"client.{method}")
    for function in (
        "encode_join_request", "decode_join_response_seq",
        "encode_checkout_request", "decode_checkout_response",
        "encode_checkin_batch", "decode_checkin_result",
    ):
        recorder.wrap(wire, function, f"wire.{function}", size_of=_payload_size)
    wrap_device_layer(recorder)
    if gateway is not None:
        recorder.wrap(type(gateway), "checkout", "gateway.checkout")
        # Size-triggered flushes happen inside the aggregator, which is
        # also what EdgeGateway.flush delegates to: one wrapper sees both.
        recorder.wrap(gateway.aggregator, "flush", "gateway.flush")


def wrap_device_layer(recorder: SpanRecorder) -> None:
    from repro.core.device import Device

    recorder.wrap(Device, "complete_checkout", "device.complete_checkout")
    # Routine 1: per-sample observe (devices driven by the generator)
    # and the row-gather the simulator feeds arrival spans through.
    recorder.wrap(Device, "observe", "device.observe",
                  size_of=lambda args, result: 1)
    recorder.wrap(Device, "observe_rows", "device.observe",
                  size_of=lambda args, result: len(args[3]))


def wrap_core_layer(recorder: SpanRecorder) -> None:
    from repro.core.server_core import ServerCore

    recorder.wrap(ServerCore, "handle_checkout", "core.handle_checkout")
    recorder.wrap(ServerCore, "handle_checkin", "core.handle_checkin")
    recorder.wrap(ServerCore, "handle_checkins", "core.handle_checkins",
                  size_of=lambda args, result: len(args[1]))

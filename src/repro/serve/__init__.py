"""Remote service API: the versioned wire protocol + HTTP deployment path.

* :mod:`repro.serve.wire` — the versioned envelope schema
  (:data:`~repro.serve.wire.PROTOCOL_VERSION`, typed error payloads).
* :mod:`repro.serve.http_host` — :class:`~repro.serve.http_host.HttpHost`,
  the one stdlib HTTP host (lifecycle, error envelopes, request metrics,
  ``/v1/metrics``) that both :class:`CrowdService` and the sharded
  tier's :class:`~repro.shard.frontend.ShardFrontEnd` run on.
* :class:`CrowdService` — the host's routes over a
  :class:`~repro.core.server_core.ServerCore`
  (``/v1/checkout``, ``/v1/checkins``, ``/v1/status``, ``/v1/join``).
* :class:`ServiceClient` — the JSON-over-HTTP client.
* :class:`HttpTransport` / :class:`RemoteDevice` /
  :class:`RemoteServerCore` — the pieces that let the unchanged device
  runtime (and the whole :class:`~repro.simulation.simulator.CrowdSimulator`
  via ``SimulationConfig(transport="http", server_url=...)``) drive a
  live server.
* ``repro-serve`` (:mod:`repro.serve.cli`) — launch a service from the
  command line.
"""

from repro.serve.client import (
    RemoteAuthenticationError,
    RemoteServiceError,
    ServiceClient,
)
from repro.serve.remote import (
    HttpLink,
    HttpTransport,
    RemoteDevice,
    RemoteServerCore,
)
from repro.serve.service import CrowdService
from repro.serve.wire import (
    PROTOCOL_VERSION,
    CheckinBatchResult,
    ErrorCode,
    ServiceStatus,
    WireError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "CheckinBatchResult",
    "CrowdService",
    "ErrorCode",
    "HttpLink",
    "HttpTransport",
    "RemoteAuthenticationError",
    "RemoteDevice",
    "RemoteServerCore",
    "RemoteServiceError",
    "ServiceClient",
    "ServiceStatus",
    "WireError",
]

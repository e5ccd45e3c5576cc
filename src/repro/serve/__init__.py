"""HTTP archive service: the XFA1 read stack served to many clients.

The package splits transport from behaviour:

- :mod:`repro.serve.service` — :class:`~repro.serve.service.ArchiveService`,
  the socket-free core: the route table ``ROUTES``, endpoint handlers
  returning :class:`~repro.serve.service.ServiceResponse` objects,
  generation ETags, reopen-on-new-generation reader leases, the shared decode
  cache, and the 404/416/422 error mapping.
- :mod:`repro.serve.http` — the transport: a dependency-free threaded HTTP
  server on the stdlib ``http.server``; what ``repro serve`` runs and what
  the test suite and the benchmark spine's ``serve-http`` workload drive.
"""

from repro.serve.service import ArchiveHandle, ArchiveService, ServiceError, ServiceResponse

__all__ = [
    "ArchiveHandle",
    "ArchiveService",
    "ServiceError",
    "ServiceResponse",
]

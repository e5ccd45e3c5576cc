"""HTTP archive service: the XFA1 read stack served to many clients.

The package splits transport from behaviour:

- :mod:`repro.serve.service` — :class:`~repro.serve.service.ArchiveService`,
  the framework-agnostic core: the route table ``ROUTES``, endpoint handlers
  returning :class:`~repro.serve.service.ServiceResponse` objects,
  generation ETags, reopen-on-new-generation reader leases, the shared decode
  cache, and the 404/416/422 error mapping.
- :mod:`repro.serve.http` — a dependency-free threaded HTTP server on the
  stdlib ``http.server``; what ``repro serve`` runs by default and what the
  test suite and the benchmark spine's ``serve-http`` workload drive.
- :mod:`repro.serve.app` — :func:`~repro.serve.app.create_app`, the FastAPI
  frontend (optional ``repro[serve]`` extra; import-guarded so the rest of
  the package works without it).
"""

from repro.serve.service import ArchiveHandle, ArchiveService, ServiceError, ServiceResponse

__all__ = [
    "ArchiveHandle",
    "ArchiveService",
    "ServiceError",
    "ServiceResponse",
    "create_app",
]


def create_app(*args, **kwargs):
    """Build the FastAPI application (requires the ``[serve]`` extra)."""
    from repro.serve.app import create_app as _create_app

    return _create_app(*args, **kwargs)

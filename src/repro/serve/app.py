"""FastAPI frontend for :class:`~repro.serve.service.ArchiveService`.

One route per :data:`~repro.serve.service.ROUTES` entry, each ending in
:meth:`ArchiveService.call` as the stdlib server does, so behaviour (ETag/304
semantics, error mapping, query defaults, ``http.*`` telemetry) is identical —
FastAPI only adds the ASGI surface, OpenAPI docs at ``/docs``, and uvicorn.

This module requires the optional ``[serve]`` extra (``pip install
repro[serve]``); importing it without fastapi installed raises an
``ImportError`` that says so.  Nothing else in :mod:`repro.serve` imports it
eagerly, so the core service, the stdlib server and the tier-1 test suite
work without the extra.
"""

from __future__ import annotations

try:
    from fastapi import FastAPI, Request, Response
except ImportError as exc:  # pragma: no cover - exercised only without the extra
    raise ImportError(
        "the FastAPI frontend requires the optional [serve] extra; "
        "install it with: pip install repro[serve] (or: pip install fastapi uvicorn). "
        "The dependency-free stdlib server (repro.serve.http / `repro serve`) "
        "offers the same endpoints without it."
    ) from exc

from repro.serve.service import ROUTES, ArchiveService, Route

__all__ = ["create_app"]


def _endpoint(service: ArchiveService, route: Route):
    """The FastAPI endpoint answering ``route`` through ``service.call``."""
    def endpoint(request: Request) -> Response:
        result = service.call(route, request.path_params, request.query_params, request.headers)
        return Response(
            content=result.body,
            status_code=result.status,
            media_type=result.media_type,
            headers=result.headers,
        )

    return endpoint


def create_app(service: ArchiveService) -> "FastAPI":
    """Wrap ``service`` in a FastAPI application (one route per endpoint)."""
    app = FastAPI(
        title="repro archive service",
        description=(
            "Region, preview and timestep reads from XFA1 archives over one "
            "shared single-flight chunk cache, with manifest-generation ETags."
        ),
        version="1.0",
    )
    app.state.service = service
    for route in ROUTES:
        app.add_api_route(
            route.path,
            _endpoint(service, route),
            methods=[route.method],
            name=route.handler,
            description=getattr(ArchiveService, route.handler).__doc__,
        )
    return app

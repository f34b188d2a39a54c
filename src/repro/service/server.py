"""The placement query front-end: a stdlib-asyncio HTTP/JSON endpoint.

No web framework — a hand-rolled HTTP/1.1 request loop on
``asyncio.start_server`` keeps the service inside the repository's
zero-new-dependencies rule and small enough to reason about under fault
injection.  One request per connection (``Connection: close``): the
closed-loop load generator and CI smoke both reconnect per request, and
simplicity here buys debuggability everywhere else.

Endpoints
---------

``GET /health``
    Liveness: 200 as long as the event loop turns.
``GET /ready``
    Readiness: 503 until the daemon has completed (or recovered) at least
    one epoch, 200 afterwards.
``GET /stats``
    Degrade-policy, cache, checkpoint, supervisor and perf-counter
    snapshot.
``POST /query``
    JSON body, dispatched on ``kind``:

    * ``placement`` — the daemon's current placement (cheap: published
      state, no admission);
    * ``cost`` — serve cost / migration / availability aggregates over
      completed epochs (cheap);
    * ``bound`` — a lower-bound solve for a heuristic class against one
      epoch's workload (expensive: cached, single-flighted and answered
      through the degrade ladder).

A bound query walks, in order:

1. **cache** — results are keyed by the runner's content digest
   (:meth:`~repro.runner.tasks.BoundTask.cache_key`), so a repeated query
   is a dict hit, not a second solve;
2. **single-flight** — concurrent identical queries coalesce onto one
   in-flight solve and all receive its result (this is the service's
   batching strategy: dedup beats reorder for an idempotent,
   content-addressed workload);
3. **degrade ladder** (:mod:`repro.service.policy`) — the admission depth
   picks an exact or an approximate (one interval, ``structure`` backend,
   ``"approx": true``) solve; with the breaker open or every admission
   slot taken, the class's last-known-good answer within its TTL is served
   with ``"stale": true`` and ``age_s``, else the query is shed (429 +
   ``Retry-After`` when admission is full, 503 when the breaker is open);
4. **deadline** — ``deadline_ms`` in the body bounds the wait; expiry is
   504 and counts a breaker failure (the guard inside the solver thread
   cannot observe the caller abandoning it).

Every 200 bound answer carries its ``tier`` (exact / approx / stale),
counted once under ``service.tier.*``.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
import json
import time
from typing import Dict, Optional, Tuple

from repro.core.classes import STANDARD_CLASSES, get_class
from repro.core.costs import CostModel
from repro.core.goals import GoalScope, QoSGoal
from repro.core.problem import MCPerfProblem
from repro.core.properties import Knowledge
from repro.perf import PERF
from repro.runner.digest import digest_of
from repro.service.chaos import ServiceChaos
from repro.service.daemon import PlacementDaemon, Supervisor
from repro.service.policy import (
    ADMISSION_FULL,
    APPROX,
    BREAKER_OPEN,
    BreakerOpenError,
    DegradePolicy,
)
from repro.solvers.registry import (
    BACKEND_STRUCTURE,
    BOUND_BACKENDS,
    install_solve_guard,
    registered_backends,
)
from repro.workload.demand import DemandMatrix

_MAX_BODY = 1 << 20  # 1 MiB: placement queries are small; anything bigger is abuse


class _Http:
    """Status lines for the subset of HTTP this service speaks."""

    REASONS = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        429: "Too Many Requests",
        500: "Internal Server Error",
        503: "Service Unavailable",
        504: "Gateway Timeout",
    }


class PlacementService:
    """HTTP front-end over one :class:`PlacementDaemon`."""

    def __init__(
        self,
        daemon: PlacementDaemon,
        *,
        policy: Optional[DegradePolicy] = None,
        supervisor: Optional[Supervisor] = None,
        chaos: Optional[ServiceChaos] = None,
        solve_timeout_s: float = 30.0,
        cache_size: int = 256,
        bound_intervals: int = 4,
    ):
        self.daemon = daemon
        self.policy = policy or DegradePolicy()
        self.supervisor = supervisor
        self.chaos = chaos
        self.solve_timeout_s = solve_timeout_s
        self.bound_intervals = bound_intervals
        self._cache: "collections.OrderedDict[str, Dict[str, object]]" = (
            collections.OrderedDict()
        )
        self._cache_size = cache_size
        self._inflight: Dict[str, asyncio.Future] = {}
        # Per-class warm-start store: the basis (or basis-less solution)
        # of the last optimal solve.  Under drift the next epoch's problem
        # usually differs only in demand numbers, so the old basis
        # re-certifies in a few dual pivots; a stale/mismatched entry
        # silently degrades to a cold solve in the registry.
        self._warm: Dict[str, object] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_counter = 0
        self.requests = 0
        self.dropped = 0
        self.coalesced = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.deadline_expired = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and start serving; returns the actual (host, port)."""
        # Process-wide: every LP dispatch — query- or daemon-driven — feeds
        # the same breaker and is refused fast while it is open.
        install_solve_guard(self.policy.guard)
        self._server = await asyncio.start_server(self._handle, host, port)
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        install_solve_guard(None)

    # -- connection handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_counter += 1
        conn_id = self._conn_counter
        try:
            if self.chaos is not None and self.chaos.should_drop(
                conn_id, epoch=self.daemon.state.index
            ):
                # The injected network fault: vanish without a response.
                # Clients must see a connection error, never a hang.
                self.dropped += 1
                PERF.count("service.drop")
                writer.close()
                return
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), timeout=10.0
                )
            except (asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
                await self._respond(writer, 400, {"error": "malformed request"})
                return
            self.requests += 1
            PERF.count("service.requests")
            status, payload = await self._dispatch(method, path, body)
            await self._respond(writer, status, payload)
        except ConnectionError:
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        head = await reader.readuntil(b"\r\n\r\n")
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise ValueError("bad request line")
        method, path, _version = parts
        length = 0
        for line in header_lines:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        if length < 0 or length > _MAX_BODY:
            raise ValueError("bad content length")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict[str, object]
    ) -> None:
        body = json.dumps(payload).encode()
        headers = [
            f"HTTP/1.1 {status} {_Http.REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        retry_after = payload.get("retry_after_s")
        if status == 429 and retry_after is not None:
            headers.append(f"Retry-After: {retry_after:g}")
        writer.write("\r\n".join(headers).encode() + b"\r\n\r\n" + body)
        await writer.drain()

    # -- routing -------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        if path == "/health":
            return 200, {"ok": True}
        if path == "/ready":
            if self.daemon.ready:
                return 200, {"ready": True, "epoch": self.daemon.state.index}
            return 503, {"ready": False, "epoch": self.daemon.state.index}
        if path == "/stats":
            return 200, self.status()
        if path == "/query":
            if method != "POST":
                return 405, {"error": "POST required"}
            try:
                query = json.loads(body.decode() or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError):
                return 400, {"error": "body is not JSON"}
            if not isinstance(query, dict):
                return 400, {"error": "body must be a JSON object"}
            return await self._query(query)
        return 404, {"error": f"no such endpoint: {path}"}

    async def _query(self, query: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        kind = query.get("kind")
        if kind == "placement":
            return 200, dict(self.daemon.placement_payload(), stale=False)
        if kind == "cost":
            return 200, self._cost_payload()
        if kind == "bound":
            return await self._bound_query(query)
        return 400, {
            "error": f"unknown query kind: {kind!r}",
            "known": ["placement", "cost", "bound"],
        }

    def _cost_payload(self) -> Dict[str, object]:
        state = self.daemon.state
        epochs = state.epochs
        reads = sum(e.reads for e in epochs)
        unavailable = sum(e.unavailable_reads for e in epochs)
        return {
            "epoch": state.index,
            "serve_cost": sum(e.serve_cost for e in epochs),
            "migration_bytes": sum(e.migration_bytes for e in epochs),
            "reads": reads,
            "availability": 1.0 if reads == 0 else 1.0 - unavailable / reads,
            "slo_violations": sum(1 for e in epochs if e.slo_violated),
            "stale": False,
        }

    # -- the expensive path --------------------------------------------------

    async def _bound_query(
        self, query: Dict[str, object]
    ) -> Tuple[int, Dict[str, object]]:
        try:
            class_name = str(query.get("class", "general"))
            klass = get_class(class_name)
            qos = float(query.get("qos", 0.9))
            backend = str(query.get("backend", "auto"))
            state_index = self.daemon.state.index
            epoch = int(query.get("epoch", max(0, state_index - 1)))
            if not 0 <= epoch < len(self.daemon._traces):
                raise ValueError(
                    f"epoch must be in [0, {len(self.daemon._traces) - 1}]"
                )
            if not 0 < qos <= 1:
                raise ValueError("qos must be in (0, 1]")
        except KeyError:
            return 400, {
                "error": f"unknown class: {query.get('class')!r}",
                "known": sorted(STANDARD_CLASSES),
            }
        except (TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}
        # An unknown backend would fail only inside the executor, after the
        # formulation is built and an admission slot is taken.
        known_backends = sorted(set(BOUND_BACKENDS).union(registered_backends()))
        if backend not in known_backends:
            return 400, {
                "error": f"unknown backend: {backend!r}",
                "known": known_backends,
            }

        deadline_ms = query.get("deadline_ms")
        timeout = self.solve_timeout_s
        if deadline_ms is not None:
            try:
                timeout = min(timeout, float(deadline_ms) / 1000.0)
            except (TypeError, ValueError):
                return 400, {"error": "deadline_ms must be a number"}

        # Past the approx depth the solve is downgraded to a cheap
        # approximation.  The approx task has its own cache key (different
        # demand resolution + backend), so exact and approximate answers
        # never alias in the cache.
        approx = self.policy.solve_tier() == APPROX
        task = self._bound_task(klass, qos, backend, epoch, approx=approx)
        key = digest_of("service-bound", task.cache_key())
        if not approx:
            warm = self._warm.get(class_name)
            if warm is not None:
                task = dataclasses.replace(task, warm_basis=warm)

        cached = self._cache_get(key)
        if cached is not None:
            self.cache_hits += 1
            PERF.count("service.cache.hit")
            return self.policy.answer(cached, cached=True)
        self.cache_misses += 1
        PERF.count("service.cache.miss")

        # Single-flight: identical queries coalesce onto one solve.
        existing = self._inflight.get(key)
        if existing is not None:
            self.coalesced += 1
            PERF.count("service.coalesced")
            return await self._await_solve(existing, class_name, timeout)

        # Breaker open or admission full: stale or shed, before an executor
        # thread is spent on a solve the guard would refuse anyway.
        cause = self.policy.enter()
        if cause is not None:
            return self.policy.degrade(class_name, cause)

        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._inflight[key] = future

        def _finish(task_future: "asyncio.Future") -> None:
            self._inflight.pop(key, None)
            if task_future.cancelled():
                future.cancel()
            elif task_future.exception() is not None:
                future.set_exception(task_future.exception())
                # A timed-out requester may have stopped awaiting; mark the
                # exception retrieved so GC does not log it as lost.
                future.exception()
            else:
                payload = task_future.result()
                self._cache_put(key, payload)
                self.policy.remember(class_name, payload)
                future.set_result(payload)

        def _solve() -> Dict[str, object]:
            try:
                if self.chaos is not None and self.chaos.should_slow(
                    self._conn_counter, epoch=self.daemon.state.index
                ):
                    time.sleep(self.chaos.slow_ms / 1000.0)
                t0 = time.perf_counter()
                result = task.run()
                if not approx:
                    warm = result.extras.get("basis")
                    if warm is not None:
                        self._warm[class_name] = warm
                return {
                    "kind": "bound",
                    "class": class_name,
                    "qos": qos,
                    "epoch": epoch,
                    "feasible": result.feasible,
                    "lp_cost": result.lp_cost,
                    "feasible_cost": result.feasible_cost,
                    "backend": result.backend_used,
                    "approx": approx,
                    "solve_s": time.perf_counter() - t0,
                    "digest": key[:16],
                }
            finally:
                self.policy.leave()

        solve_future = asyncio.ensure_future(loop.run_in_executor(None, _solve))
        solve_future.add_done_callback(_finish)
        return await self._await_solve(future, class_name, timeout)

    async def _await_solve(
        self, future: "asyncio.Future", class_name: str, timeout: float
    ) -> Tuple[int, Dict[str, object]]:
        try:
            payload = await asyncio.wait_for(asyncio.shield(future), timeout=timeout)
            return self.policy.answer(payload, cached=False)
        except asyncio.TimeoutError:
            # The solver thread is still running; the guard inside it cannot
            # see this caller abandoning the wait, so account the failure
            # here — repeated deadline expiries must trip the breaker.
            self.deadline_expired += 1
            PERF.count("service.deadline")
            self.policy.record_failure()
            return 504, {"error": "deadline expired", "class": class_name}
        except BreakerOpenError:
            return self.policy.degrade(class_name, BREAKER_OPEN)
        except Exception as exc:
            PERF.count("service.error")
            return 500, {"error": f"{type(exc).__name__}: {exc}", "class": class_name}

    def _bound_task(
        self, klass, qos: float, backend: str, epoch: int, approx: bool = False
    ):
        from repro.runner.tasks import BoundTask

        properties = klass.properties
        if approx:
            # The approx tier: one demand interval (coarsest
            # resolution) and the structure backend, which picks one of
            # three routes: the exact tree DP on a tree metric, the
            # separable per-object fan-out for a large per-object scope,
            # or the monolithic LP.  This service's per-user scope never
            # splits, so only the first and last apply here.
            backend = BACKEND_STRUCTURE
            # One interval has no earlier activity, so a reactive class
            # could create nothing there.  Without Know/Hist/React the
            # answer stays below the exact one: any exact placement,
            # stored once wherever it is ever stored, is feasible at one
            # interval and costs no more.
            properties = dataclasses.replace(
                properties,
                knowledge=Knowledge.GLOBAL,
                history_window=None,
                reactive=False,
            )
        intervals = 1 if approx else self.bound_intervals
        trace = self.daemon._traces[epoch]
        demand = DemandMatrix.from_trace(trace, num_intervals=intervals)
        problem = MCPerfProblem(
            topology=self.daemon.task.topology,
            demand=demand,
            goal=QoSGoal(
                tlat_ms=self.daemon.task.tlat_ms,
                fraction=qos,
                scope=GoalScope.PER_USER,
            ),
            costs=CostModel(
                alpha=self.daemon.task.alpha, beta=self.daemon.task.beta
            ),
        )
        label = f"service:{klass.name}@{epoch}"
        return BoundTask(
            problem=problem,
            properties=properties,
            backend=backend,
            label=label + "+approx" if approx else label,
        )

    # -- cache ---------------------------------------------------------------

    def _cache_get(self, key: str) -> Optional[Dict[str, object]]:
        payload = self._cache.get(key)
        if payload is not None:
            self._cache.move_to_end(key)
        return payload

    def _cache_put(self, key: str, payload: Dict[str, object]) -> None:
        self._cache[key] = payload
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    # -- observability -------------------------------------------------------

    def status(self) -> Dict[str, object]:
        perf = {
            name: count
            for name, count in PERF.counters.items()
            if name.startswith("service.")
        }
        policy = self.policy.status()
        payload: Dict[str, object] = {
            "requests": self.requests,
            "dropped_by_chaos": self.dropped,
            "policy": policy,
            # Views of the policy's tiers under their earlier names, which
            # benchmarks/e2e's service layers read from /stats.
            "admission": {"shed": policy["shed_by_cause"][ADMISSION_FULL]},
            "brownout": {
                "approx_served": policy["tiers"]["approx"],
                "stale_served": policy["tiers"]["stale"],
            },
            "cache": {
                "size": len(self._cache),
                "capacity": self._cache_size,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "coalesced": self.coalesced,
                "deadline_expired": self.deadline_expired,
            },
            "checkpoint": self.daemon.store.status(),
            "perf": perf,
        }
        if self.supervisor is not None:
            payload["supervisor"] = self.supervisor.status()
        else:
            payload["epoch"] = self.daemon.state.index
            payload["ready"] = self.daemon.ready
        return payload

"""The async subscription gateway of the streaming serving tier.

:class:`StreamGateway` serves the constellation's epoch stream to many
concurrent subscribers over the same length-prefixed wire frames the
worker transport speaks (:mod:`repro.dist.transport`), so a subscriber is
just a :class:`~repro.dist.transport.SocketTransport` plus the shared
:mod:`repro.serve.codec`.  The design follows the paper's separation of
the constellation computation from its consumers (§3.2) and the ROADMAP's
"serving tier" direction:

* **Single encode, shared fan-out.**  Each published epoch is encoded
  at most once by the database's :class:`EpochUpdateCodec`, from the state
  or diff the gateway hands it; a DIFF rebuilt from the calculation
  child's frame is not encoded at all, the codec adopts that frame's bytes
  (:attr:`~repro.core.constellation.ConstellationDiff.frame`).  Every
  client queue holds references to the same ``bytes`` object.  Fan-out
  cost is queue handling, not serialization.
* **Bounded queues, backpressure, keyframe resync.**  Every client has a
  bounded send queue.  A client that cannot drain its queue within the
  configured ``ack_timeout_s`` — the same discipline the worker
  pool applies to unacknowledged epochs — or whose queue overflows
  is *evicted to a keyframe*: its queued epoch backlog is flushed
  (pending query replies are preserved) and replaced with the current
  epoch's keyframe, from which the diff stream resumes.
* **No pre-auth deserialisation hazards.**  Every frame a client can
  send — including the very first SUBSCRIBE — is decoded by
  :func:`repro.dist.wire.decode_frame`, whose metadata is stdlib JSON: it
  can only build dicts, lists, strings, finite numbers, 64-bit integers,
  booleans and ``None``, so a dialer gets no code-execution surface before
  (or after) authenticating.  A malformed AUTH answer (a digest that is
  not hex) is a rejected subscription like a wrong one.
* **One stream.**  Every subscriber is sent every epoch.  A SUBSCRIBE
  that asks for a filtered stream (a ``scope``, gone since wire version 6)
  is refused with an ``ERROR`` frame, never silently widened.
* **Path queries.**  ``QUERY`` frames ("path latency src→dst now") are
  answered from the current state: from a row or bounded search its path
  store holds for the epoch when one settled the pair, else by a bounded
  search the store then holds; the reply names the epoch it was computed on.

The asyncio core runs inside :class:`GatewayServer`, a thread-hosted
facade that plugs into :meth:`ConstellationDatabase.add_listener` so the
coordinator's ``set_state`` publications reach subscribers without the
coordinator ever blocking on a slow client.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Optional

from repro.core.constellation import machine_from_name
from repro.dist import wire
from repro.dist.transport import (
    LENGTH_PREFIX,
    MAX_FRAME_BYTES,
    auth_matches,
    challenge,
    frame,
)
from repro.dist.wire import FrameKind


class GatewayError(RuntimeError):
    """Raised when the gateway cannot serve a subscription or query."""


@dataclass
class _Subscription:
    """Server-side bookkeeping of one connected subscriber.

    Queue items are ``(framed_bytes, is_result)`` pairs — the flag lets an
    eviction flush the epoch backlog while preserving RESULT frames that
    answer QUERYs the client is blocked on — plus the ``None`` shutdown
    sentinel.
    """

    client_id: str
    queue: asyncio.Queue
    last_epoch: int = 0
    delivered: int = 0
    evictions: int = 0
    queries: int = 0
    closed: bool = False

    def statistics(self) -> dict:
        return {
            "delivered": self.delivered,
            "evictions": self.evictions,
            "queries": self.queries,
        }


class StreamGateway:
    """The asyncio serving core: subscriptions, fan-out, queries.

    All methods execute on the owning event loop; :class:`GatewayServer`
    provides the thread-safe outside interface.
    """

    def __init__(
        self,
        database,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 64,
        ack_timeout_s: float = 5.0,
        auth_secret: str = "",
    ):
        if queue_limit <= 0:
            raise ValueError("queue limit must be positive")
        self.database = database
        self.host = host
        self.port = port
        self.queue_limit = queue_limit
        self.ack_timeout_s = ack_timeout_s
        self.auth_secret = auth_secret
        self._server: Optional[asyncio.AbstractServer] = None
        self._client_tasks: set[asyncio.Task] = set()
        self._client_writers: set[asyncio.StreamWriter] = set()
        self._subscriptions: dict[str, _Subscription] = {}
        self._counter = 0
        self.published_epochs = 0
        self.rejected_subscriptions = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (resolves the ephemeral port)."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener and disconnect every subscriber."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for subscription in list(self._subscriptions.values()):
            self._close_subscription(subscription)
        for writer in list(self._client_writers):
            writer.close()
        # Let the per-client handlers run their shutdown sequence to
        # completion; cancelling them instead makes asyncio's stream
        # connection callback re-raise the CancelledError into the loop's
        # exception handler.
        if self._client_tasks:
            await asyncio.wait(
                list(self._client_tasks), timeout=self.ack_timeout_s
            )

    # -- framing over asyncio streams --------------------------------------

    async def _read_frame(self, reader: asyncio.StreamReader) -> bytes:
        """A client's next frame.  The wait for its first byte is unbounded
        (an idle subscriber is legal); the rest must follow within
        ``ack_timeout_s``, so a client stalled mid-frame is dropped."""
        first = await reader.readexactly(1)
        async with asyncio.timeout(self.ack_timeout_s):
            prefix = first + await reader.readexactly(LENGTH_PREFIX.size - 1)
            (length,) = LENGTH_PREFIX.unpack(prefix)
            if length > MAX_FRAME_BYTES:
                raise GatewayError(f"frame length {length} exceeds the limit")
            return await reader.readexactly(length)

    # -- publication (called from the database listener) --------------------

    def publish(self, epoch: int, state, diff) -> None:
        """Fan one published epoch out to every subscription.

        The keyframe/diff is encoded at most once (the codec's memo); clients
        whose bounded queue overflows are evicted to the current keyframe.
        Runs on the event loop via ``call_soon_threadsafe`` from the
        database's listener hook.
        """
        codec = self.database.codec
        self.published_epochs += 1
        if diff is None:
            update = codec.keyframe_update(epoch, state=state)
        else:
            update = codec.diff_update(epoch, diff=diff)
        payload = frame(update.data)
        for subscription in self._subscriptions.values():
            if not subscription.closed:
                self._enqueue(subscription, payload, epoch, state)

    def _enqueue(
        self, subscription: _Subscription, payload: bytes, epoch: int, state
    ) -> None:
        if epoch <= subscription.last_epoch:
            # The subscription was seeded (or resynced) at this epoch or a
            # later one while this publication was still queued behind it
            # on the loop — delivering it would duplicate an epoch the
            # client already holds and break its diff chain.
            return
        subscription.last_epoch = epoch
        try:
            subscription.queue.put_nowait((payload, False))
        except asyncio.QueueFull:
            # Slow client: drop its backlog and resynchronise it from the
            # current epoch's keyframe (the codec remembers the encoding,
            # so concurrent evictions share one keyframe encode).
            self._evict(subscription, (epoch, state))

    @staticmethod
    def _close_subscription(subscription: _Subscription) -> None:
        """Mark a subscription closed and wake its writer loop.

        The sentinel put is best-effort: on a full queue the writer is
        already awake and checks ``closed`` after every dequeue, so a
        dropped sentinel cannot strand it.
        """
        subscription.closed = True
        try:
            subscription.queue.put_nowait(None)
        except asyncio.QueueFull:
            pass

    def _evict(self, subscription: _Subscription, publication: Optional[tuple] = None) -> bool:
        """Drop a subscription's epoch backlog and resync it from a keyframe.

        Queued RESULT frames survive the flush — they answer QUERYs whose
        clients are blocked waiting on the reply, and resyncing the epoch
        stream does not invalidate them.  ``publication`` is the ``(epoch,
        state)`` being published; without it the database's current epoch
        and state are read together under its lock.
        Returns ``False`` when a shutdown sentinel was drained, i.e. the
        subscription is closing and the caller's loop should exit.
        """
        preserved = []
        closing = subscription.closed
        while not subscription.queue.empty():
            item = subscription.queue.get_nowait()
            if item is None:
                closing = True
            elif item[1]:
                preserved.append(item)
        if publication is None:
            with self.database.lock:
                publication = self.database.epoch, self.database.state
        keyframe = self.database.codec.keyframe_update(*publication)
        items = [(frame(keyframe.data), False), *preserved]
        if closing:
            items.append(None)
        for item in items:
            try:
                subscription.queue.put_nowait(item)
            except asyncio.QueueFull:
                # Only reachable when the queue was brim-full of preserved
                # replies; the overflow replies are dropped with the backlog.
                break
        subscription.last_epoch = max(subscription.last_epoch, keyframe.epoch)
        subscription.evictions += 1
        return not closing

    # -- per-client protocol -------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        subscription: Optional[_Subscription] = None
        writer_task: Optional[asyncio.Task] = None
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        self._client_writers.add(writer)
        try:
            data = await asyncio.wait_for(
                self._read_frame(reader), timeout=self.ack_timeout_s
            )
            kind, meta, _arrays = wire.decode_frame(data)
            if kind is not FrameKind.SUBSCRIBE:
                raise GatewayError(
                    f"expected a SUBSCRIBE frame first, got {kind.name}"
                )
            subscription = await self._subscribe(reader, writer, meta)
            if subscription is None:
                return
            writer_task = asyncio.ensure_future(
                self._writer_loop(subscription, writer)
            )
            await self._reader_loop(subscription, reader, writer)
        except (
            GatewayError,
            wire.WireError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
            OSError,
        ):
            pass
        finally:
            if subscription is not None:
                self._close_subscription(subscription)
                # Pop only our own registry entry: after a (rejected)
                # duplicate-id race the key may point at another live
                # subscription whose stream must not be torn down.
                if self._subscriptions.get(subscription.client_id) is subscription:
                    del self._subscriptions[subscription.client_id]
            if writer_task is not None:
                try:
                    await writer_task
                except Exception:
                    pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._client_writers.discard(writer)
            if task is not None:
                self._client_tasks.discard(task)

    async def _subscribe(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        meta: dict,
    ) -> Optional[_Subscription]:
        """Authenticate (if configured) and register one subscription."""
        self._counter += 1
        client_id = str(meta.get("client") or f"client-{self._counter}")
        if self.auth_secret:
            # Same challenge/response the worker handshake uses, with the
            # client id as the identity bound into the digest.
            nonce, challenge_frame = challenge()
            writer.write(frame(challenge_frame))
            await writer.drain()
            data = await asyncio.wait_for(
                self._read_frame(reader), timeout=self.ack_timeout_s
            )
            kind, auth_meta, _arrays = wire.decode_frame(data)
            if not auth_matches(kind, auth_meta, self.auth_secret, nonce, client_id):
                self.rejected_subscriptions += 1
                return None
        existing = self._subscriptions.get(client_id)
        refusal = None
        if existing is not None and not existing.closed:
            # A second subscriber under the same id must not overwrite the
            # registry entry: the first client's stream would silently stop
            # when this connection's cleanup popped the shared key.
            refusal = f"client id {client_id!r} is already subscribed"
        elif "scope" in meta:
            # Refused, not widened: a client that asked for a filtered
            # stream must not be handed the full one unannounced.
            refusal = (
                "scoped subscriptions were removed (wire version 6): "
                "subscribe without 'scope' to receive every epoch"
            )
        if refusal is not None:
            self.rejected_subscriptions += 1
            writer.write(frame(wire.encode_frame(FrameKind.ERROR, {"error": refusal})))
            await writer.drain()
            return None
        subscription = _Subscription(
            client_id=client_id, queue=asyncio.Queue(self.queue_limit)
        )
        self._subscriptions[client_id] = subscription
        database = self.database
        # Take a consistent (epoch, state) pair under the database lock —
        # the coordinator thread may be mid-``set_state`` with its publish
        # callback still queued behind us on the loop.  Recording the seed
        # epoch lets ``_enqueue`` drop such already-covered publications.
        with database.lock:
            epoch = database.epoch
            seed = (
                database.codec.keyframe_update(epoch, database.state)
                if database.has_state
                else None
            )
        ack = wire.encode_frame(
            FrameKind.SUBSCRIBE_ACK, {"client": client_id, "epoch": epoch}
        )
        writer.write(frame(ack))
        # Seed the stream with the current epoch's keyframe so the client
        # has a base state to apply subsequent diffs onto.
        if seed is not None:
            subscription.queue.put_nowait((frame(seed.data), False))
            subscription.last_epoch = epoch
        await writer.drain()
        return subscription

    async def _writer_loop(
        self, subscription: _Subscription, writer: asyncio.StreamWriter
    ) -> None:
        """Drain the subscription queue into the socket, with backpressure.

        A client that cannot absorb a frame within ``ack_timeout_s`` (the
        worker pool's unacked-epoch discipline) is evicted: its backlog is
        dropped and a fresh keyframe queued, and the write retried.
        """
        while True:
            item = await subscription.queue.get()
            if item is None or subscription.closed:
                return
            payload, _is_result = item
            writer.write(payload)
            try:
                await asyncio.wait_for(writer.drain(), timeout=self.ack_timeout_s)
            except asyncio.TimeoutError:
                if subscription.closed:
                    return
                if not self._evict(subscription):
                    return
                continue
            subscription.delivered += 1

    async def _reader_loop(
        self,
        subscription: _Subscription,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve QUERY frames until the client disconnects."""
        while True:
            data = await self._read_frame(reader)
            kind, meta, _arrays = wire.decode_frame(data)
            if kind is not FrameKind.QUERY:
                raise GatewayError(f"unexpected {kind.name} frame mid-stream")
            result = self._answer_query(subscription, meta)
            payload = frame(wire.encode_frame(FrameKind.RESULT, result))
            try:
                subscription.queue.put_nowait((payload, True))
            except asyncio.QueueFull:
                # The backlog is epoch frames the client is not draining;
                # apply the eviction discipline (which preserves earlier
                # replies) rather than tearing the connection down, then
                # deliver this reply.
                self._evict(subscription)
                try:
                    subscription.queue.put_nowait((payload, True))
                except asyncio.QueueFull:
                    pass  # queue brim-full of replies: drop like the backlog

    def _answer_query(self, subscription: _Subscription, meta: dict) -> dict:
        """Answer one path-latency query from the current state.

        The names resolve as on every surface
        (:func:`~repro.core.constellation.machine_from_name`), and the query
        goes through :meth:`ConstellationState.path` under the database
        lock, so the delay and the epoch it names belong to one publication.
        """
        subscription.queries += 1
        database = self.database
        try:
            with database.lock:
                epoch, state = database.epoch, database.state
                source = machine_from_name(str(meta["source"]), state.node_index)
                destination = machine_from_name(str(meta["destination"]), state.node_index)
                result = state.path(source, destination)
            reachable = result.reachable
            return {
                "client": subscription.client_id,
                "source": source.name,
                "destination": destination.name,
                "epoch": epoch,
                "reachable": reachable,
                "delay_ms": float(result.delay_ms) if reachable else None,
                "rtt_ms": float(result.rtt_ms) if reachable else None,
            }
        except (LookupError, ValueError, RuntimeError) as error:
            return {
                "client": subscription.client_id,
                "error": str(error),
            }

    # -- statistics ----------------------------------------------------------

    def statistics(self) -> dict:
        """Aggregate and per-client serving statistics."""
        clients = {
            client_id: subscription.statistics()
            for client_id, subscription in sorted(self._subscriptions.items())
        }
        return {
            "published_epochs": self.published_epochs,
            "encode_count": self.database.codec.encode_count,
            "subscriptions": len(self._subscriptions),
            "rejected_subscriptions": self.rejected_subscriptions,
            "delivered": sum(c["delivered"] for c in clients.values()),
            "evictions": sum(c["evictions"] for c in clients.values()),
            "queries": sum(c["queries"] for c in clients.values()),
            "clients": clients,
        }


class GatewayServer:
    """Thread-hosted facade running a :class:`StreamGateway` event loop.

    Owns the loop thread, registers itself as a database epoch listener
    and bridges publications onto the loop with ``call_soon_threadsafe``,
    so the coordinator's epoch path never blocks on subscriber I/O.
    """

    def __init__(
        self,
        database,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 64,
        ack_timeout_s: float = 5.0,
        auth_secret: str = "",
    ):
        self.gateway = StreamGateway(
            database,
            host=host,
            port=port,
            queue_limit=queue_limit,
            ack_timeout_s=ack_timeout_s,
            auth_secret=auth_secret,
        )
        self.database = database
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._stopped = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` subscribers dial."""
        return (self.gateway.host, self.gateway.port)

    def start(self) -> "GatewayServer":
        """Start the loop thread, bind the listener, hook the database."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop, name="celestial-gateway", daemon=True
        )
        self._thread.start()
        started = self._started.wait(timeout=10.0)
        if self._start_error is not None:
            # The loop thread is on its way out: leave nothing behind.
            self._thread.join(timeout=10.0)
            self._thread = None
            raise GatewayError(
                f"the gateway cannot listen on {self.gateway.host}:{self.gateway.port}: "
                f"{self._start_error}"
            ) from self._start_error
        if not started:
            raise GatewayError("the gateway event loop did not start")
        self.database.add_listener(self._on_epoch)
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self.gateway.start())
        except BaseException as error:  # handed to start(), which raises it
            self._start_error = error
            loop.close()
            self._started.set()
            return
        self._loop = loop
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.gateway.stop())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def stop(self) -> None:
        """Unhook from the database and stop the loop thread (idempotent)."""
        if self._stopped or self._loop is None:
            return
        self._stopped = True
        self.database.remove_listener(self._on_epoch)
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._thread = None

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- bridging ------------------------------------------------------------

    def _on_epoch(self, epoch: int, state, diff) -> None:
        if self._loop is not None and not self._stopped:
            self._loop.call_soon_threadsafe(
                self.gateway.publish, epoch, state, diff
            )

    def statistics(self) -> dict:
        """Serving statistics snapshot (thread-safe)."""
        if self._loop is None:
            return self.gateway.statistics()
        future = asyncio.run_coroutine_threadsafe(
            self._statistics_async(), self._loop
        )
        return future.result(timeout=10.0)

    async def _statistics_async(self) -> dict:
        return self.gateway.statistics()

"""Out-of-process load generator: one WebSocket session, two threads.

Run by ``perfbench/run.py`` as its own process, so the generator never
shares the daemon's (or ``run.py``'s) interpreter lock::

    python3 perfbench/loadgen.py --port PORT --plan plan.json --out results.json \
        [--cpus 0]

The plan is a JSON list of phases, sent in order over one pipelined
WebSocket session to the daemon's ``/v1/ws`` endpoint:

* ``{"name", "kind": "open", "messages": [[verb, payload, due], ...]}``
  — open loop: each message is sent at its due time (seconds after the
  phase starts) whether or not earlier ones were answered;
* ``{"name", "kind": "closed", "concurrency", "seconds", "messages": [...]}``
  — closed loop: ``concurrency`` requests stay outstanding; each answer
  releases the next message, until ``seconds`` pass or the list runs out.

A phase with ``"signal": pid`` ends by sending ``SIGUSR1`` to ``pid`` once
all its answers are in: the benchmark's daemon launcher then stops timing
its calibration ticks (``perfbench/launcher.py``).

The main thread sends and one receiver thread reads answers, so the process
runs two threads in all.  Every sent request is written to the results file
as ``[phase, verb, due, sent, received, status, result]`` with
``time.perf_counter`` stamps (``CLOCK_MONOTONIC`` on Linux, so they compare
with the daemon's span stamps).  ``due`` is when the request should have
gone out: for the open loop its schedule, for the closed loop the moment
its slot freed.  A request never answered gets ``received`` ``null`` and
status ``"timeout"``.  Nothing is retried.

The WebSocket client here is deliberately separate from
``repro.serve.client``: the generator's own cost must not change when the
program's codec does.
"""

import argparse
import json
import os
import signal
import socket
import struct
import sys
import threading
import time
from base64 import b64encode

#: How long the sender waits for outstanding answers before giving up.
DRAIN_SECONDS = 30.0


def _frame(payload: bytes) -> bytes:
    """One masked client text frame (RFC 6455 requires client masking)."""
    header = bytearray([0x81])
    length = len(payload)
    if length < 126:
        header.append(0x80 | length)
    elif length < 1 << 16:
        header.append(0x80 | 126)
        header += struct.pack(">H", length)
    else:
        header.append(0x80 | 127)
        header += struct.pack(">Q", length)
    key = os.urandom(4)
    header += key
    repeated = (key * (length // 4 + 1))[:length]
    masked = (int.from_bytes(payload, "big")
              ^ int.from_bytes(repeated, "big")).to_bytes(length, "big")
    return bytes(header) + masked


class _Reader:
    """Buffered exact reads off a blocking socket."""

    def __init__(self, sock):
        self.sock = sock
        self.buffer = bytearray()

    def exact(self, count: int) -> bytes:
        while len(self.buffer) < count:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the session")
            self.buffer += chunk
        data = bytes(self.buffer[:count])
        del self.buffer[:count]
        return data

    def frame(self):
        first, second = self.exact(2)
        length = second & 0x7F
        if length == 126:
            length = struct.unpack(">H", self.exact(2))[0]
        elif length == 127:
            length = struct.unpack(">Q", self.exact(8))[0]
        return first & 0x0F, self.exact(length) if length else b""


def _connect(port: int):
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    key = b64encode(os.urandom(16)).decode("ascii")
    sock.sendall((f"GET /v1/ws HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
                  "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                  f"Sec-WebSocket-Key: {key}\r\n"
                  "Sec-WebSocket-Version: 13\r\n\r\n").encode("latin-1"))
    reader = _Reader(sock)
    head = bytearray()
    while not head.endswith(b"\r\n\r\n"):
        head += reader.exact(1)
    if b" 101 " not in head.split(b"\r\n", 1)[0]:
        raise ConnectionError(f"upgrade refused: {bytes(head[:80])!r}")
    return sock, reader


def run(port: int, phases):
    sock, reader = _connect(port)
    sock.settimeout(None)
    records = []          # one per sent request, indexed by id - 1
    state = {"received": 0, "closed": False}
    changed = threading.Condition()
    failure = []

    def receive():
        try:
            while True:
                opcode, payload = reader.frame()
                now = time.perf_counter()
                if opcode == 0x8:
                    break
                if opcode != 0x1:
                    continue
                message = json.loads(payload)
                record = records[message["id"] - 1]
                record[4] = now
                if message.get("ok"):
                    record[5] = 200
                    record[6] = message["result"]
                else:
                    record[5] = int(message.get("status", 500))
                    record[6] = message.get("error")
                with changed:
                    state["received"] += 1
                    changed.notify_all()
        except (ConnectionError, OSError, ValueError) as error:
            failure.append(repr(error))
        finally:
            with changed:
                state["closed"] = True
                changed.notify_all()

    def wait_for(predicate, timeout=DRAIN_SECONDS):
        with changed:
            return changed.wait_for(
                lambda: state["closed"] or predicate(), timeout)

    def send(phase, verb, payload, due):
        records.append([phase, verb, due, None, None, None, None])
        body = json.dumps({"id": len(records), "verb": verb,
                           "payload": payload}).encode("utf-8")
        records[-1][3] = time.perf_counter()
        sock.sendall(_frame(body))

    receiver = threading.Thread(target=receive, name="loadgen-receiver")
    receiver.start()
    try:
        for phase in phases:
            started = time.perf_counter()
            if phase["kind"] == "open":
                for verb, payload, offset in phase["messages"]:
                    due = started + offset
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    send(phase["name"], verb, payload, due)
            else:
                deadline = started + phase["seconds"]
                limit = phase["concurrency"]
                for verb, payload in phase["messages"]:
                    wait_for(lambda: len(records) - state["received"] < limit)
                    if time.perf_counter() >= deadline or state["closed"]:
                        break
                    send(phase["name"], verb, payload, time.perf_counter())
            # Each phase's tail is answered before the next phase starts.
            wait_for(lambda: state["received"] == len(records))
            if "signal" in phase:
                os.kill(phase["signal"], signal.SIGUSR1)
            if state["closed"]:
                break
    finally:
        try:
            sock.sendall(b"\x88\x80" + os.urandom(4))  # masked close frame
        except OSError:
            pass
        receiver.join(timeout=DRAIN_SECONDS)
        sock.close()
    for record in records:
        if record[4] is None:
            record[5] = "timeout"
    return records, failure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--cpus", default=None,
                        help="comma-separated CPUs to run on")
    args = parser.parse_args(argv)
    if args.cpus:
        os.sched_setaffinity(0, {int(cpu) for cpu in args.cpus.split(",")})
    with open(args.plan) as handle:
        phases = json.load(handle)
    records, failure = run(args.port, phases)
    with open(args.out, "w") as handle:
        json.dump({"records": records, "errors": failure}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

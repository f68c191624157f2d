"""Stand-in for a model-inference loss oracle, for the benchmark.

Speaks the line protocol of ``LossOracle.from_command`` unchanged: it reads
one decimal row index per line on stdin and answers each with one decimal
loss per line on stdout, in order.  The losses come from a file with one value
per line.

Latency is charged per wake-up, not per line: each time the process wakes up
with complete requests pending, it sleeps ``--latency-ms`` once and then
answers all of them.  A client that pipelines its requests therefore pays the
latency once per batch, as it would with a batched model server.

On end of input it writes ``{"round_trips", "items", "busy_s"}`` as JSON to
``--stats``: wake-ups that answered at least one request, requests answered,
and wall time spent from each such wake-up to its flushed replies.

Usage: python3 fake_oracle.py LOSSES [--latency-ms MS] [--stats PATH]
"""

import argparse
import json
import os
import sys
import time


def _write_all(fd: int, data: bytes):
    while data:
        data = data[os.write(fd, data):]


def serve(losses: list, latency_s: float, fd_in: int, fd_out: int) -> dict:
    stats = {"round_trips": 0, "items": 0, "busy_s": 0.0}
    pending = b""
    while True:
        chunk = os.read(fd_in, 1 << 16)
        if not chunk:
            break
        woke = time.perf_counter()
        *lines, pending = (pending + chunk).split(b"\n")
        if not lines:
            continue
        time.sleep(latency_s)
        replies = []
        for line in lines:
            try:
                replies.append(repr(losses[int(line)]))
            except (ValueError, IndexError):
                replies.append("nan")  # the client rejects it as an invalid loss
        _write_all(fd_out, ("\n".join(replies) + "\n").encode())
        stats["round_trips"] += 1
        stats["items"] += len(lines)
        stats["busy_s"] += time.perf_counter() - woke
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("losses")
    parser.add_argument("--latency-ms", type=float, default=1.0)
    parser.add_argument("--stats")
    args = parser.parse_args(argv)
    with open(args.losses) as fh:
        losses = [float(line) for line in fh if line.strip()]
    stats = serve(losses, args.latency_ms / 1000.0,
                  sys.stdin.fileno(), sys.stdout.fileno())
    if args.stats:
        with open(args.stats, "w") as fh:
            json.dump(stats, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

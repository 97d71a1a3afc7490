"""``python -m repro.service`` — run the selector service in the
foreground.  Prints ``REPRO_SERVICE_READY <host> <port>`` once the
socket is bound (``--port 0`` binds an ephemeral port; the printed line
is how scripts and the CI smoke job learn it).

The service flags are declared here and nowhere else: ``repro serve``
attaches :func:`add_service_arguments` and dispatches to :func:`run`, so
both spellings accept the same options."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.service.server import ServiceConfig, serve


def add_service_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the service flag block (the one declaration of it)."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7171,
                        help="listen port (0 binds an ephemeral port, "
                             "printed on the REPRO_SERVICE_READY line)")
    parser.add_argument("--state-dir", required=True,
                        help="directory for the persistent job store "
                             "(jobs/ and results/); survives restarts")
    parser.add_argument("--max-queued", type=int, default=64,
                        help="admission cap on queued jobs (429 beyond it)")
    parser.add_argument("--max-running", type=int, default=4,
                        help="bounded pool of concurrent drives")
    parser.add_argument("--max-num-shards", type=int, default=64,
                        help="per-job cap on EngineOptions.num_shards")
    parser.add_argument("--max-records", type=int, default=1_000_000,
                        help="per-job cap on the dataset's point count")
    parser.add_argument("--default-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="timeout applied to jobs that carry none")
    parser.add_argument("--result-max-age", type=float, default=None,
                        metavar="SECONDS",
                        help="evict stored results older than this "
                             "(opportunistic, after every completed job)")
    parser.add_argument("--result-max-bytes", type=int, default=None,
                        help="evict oldest stored results while results/ "
                             "exceeds this size")


def run(args: argparse.Namespace) -> int:
    """Serve under the configuration a parsed flag block describes."""
    config = ServiceConfig(
        state_dir=args.state_dir,
        max_queued=args.max_queued,
        max_running=args.max_running,
        max_num_shards=args.max_num_shards,
        max_records=args.max_records,
        default_timeout_s=args.default_timeout,
        result_max_age_s=args.result_max_age,
        result_max_bytes=args.result_max_bytes,
    )
    return serve(config, host=args.host, port=args.port)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.service",
        description="long-lived selector service (job queue, warm "
        "contexts, metrics endpoint)",
    )
    add_service_arguments(parser)
    return parser


def main(argv: Optional[list] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

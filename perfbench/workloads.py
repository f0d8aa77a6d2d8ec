"""The four benchmark workloads: seeded set-up, the timed job, its checks.

``BENCHMARK.json`` lists three of them.  ``stream-csv`` is run by hand
(``--workload stream-csv``): its pure-Python CSV parsing follows the
host's speed swings more than the pacing probe does (see README.md).

Each workload builds its inputs from the seed alone, calls only the public
APIs of the package under test (``repro.datasets``, ``PrivBayes``,
``repro.data.io``, ``repro.serve``) and checks every output it gets back.
A check that fails turns the job into a failure: it is counted against
``attempted`` and its time is never used.

The seed makes the data.  The release randomness (the exponential
mechanism, the Laplace noise, the sampler) draws from one fixed stream,
``RELEASE_SEED``: the structure PrivBayes picks decides how much counting a
fit does, and with both seeded per run the adult jobs varied by a third
from seed to seed.  With the stream fixed, seeds still change the data and,
through the scores, the structure, but runs stay comparable.

The fingerprint of a job is one sha256 over (network, noisy conditionals,
released rows), following the ``_fingerprint`` scheme of
``tests/core/test_privbayes_regression.py``.  Every job of a run starts from
the same data and the same stream, so every job of a run must reproduce the
same fingerprint.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core.privbayes import PrivBayes, PrivBayesConfig
import repro.data.io as csv_io
from repro.datasets import load_acs, load_adult, random_binary_source
from repro.serve.coalescer import CoalescingSampler
from repro.serve.service import SynthesisService

#: Rows of the acs-fit and stream-csv inputs.  Both are a quarter of the
#: reference sizes (47,461 ACS rows, a 200,000-row CSV), so that a run
#: holds about fifteen jobs: with four or five jobs of five seconds each,
#: run medians on a 2-vCPU VM spread by 30% from one run to the next.
ACS_ROWS = 12_000
STREAM_ROWS = 50_000
STREAM_COLUMNS = 8
SERVE_CLIENTS = 32
SERVE_REQUESTS_PER_CLIENT = 20
SERVE_ROWS_PER_REQUEST = 100
SERVE_ROWS_PER_JOB = SERVE_CLIENTS * SERVE_REQUESTS_PER_CLIENT * SERVE_ROWS_PER_REQUEST
RELEASE_SEED = 0


def release_rng() -> np.random.Generator:
    return np.random.default_rng(RELEASE_SEED)


def model_digest(model, digest=None):
    """sha256 over the network pairs and the noisy conditional matrices."""
    digest = digest or hashlib.sha256()
    for pair in model.network:
        digest.update(repr((pair.child, pair.parents)).encode())
    for conditional in model.noisy.conditionals:
        digest.update(conditional.child.encode())
        digest.update(np.ascontiguousarray(conditional.matrix).tobytes())
    return digest


def table_digest(table, digest):
    for name in table.attribute_names:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(table.column(name)).tobytes())
    return digest


def check_model(model, d: int) -> List[str]:
    problems = []
    spent = model.accountant.spent
    if not math.isclose(spent, model.config.epsilon, rel_tol=1e-9):
        problems.append(
            f"accountant charged {spent!r}, config.epsilon is "
            f"{model.config.epsilon!r}"
        )
    if len(model.network.pairs) != d:
        problems.append(f"network has {len(model.network.pairs)} pairs, want {d}")
    return problems


def check_sample(table, attributes, n: int) -> List[str]:
    problems = []
    if table.n != n:
        problems.append(f"sample has {table.n} rows, want {n}")
    if tuple(table.attribute_names) != tuple(a.name for a in attributes):
        problems.append("sample schema differs from the source schema")
        return problems
    for attr in attributes:
        codes = table.column(attr.name)
        if codes.size and (codes.min() < 0 or codes.max() >= attr.size):
            problems.append(f"codes of {attr.name!r} fall outside its domain")
    return problems


class Outcome:
    """What one job produced: check failures, fingerprint, request latencies."""

    def __init__(self, problems: List[str], fingerprint: str, latencies=None):
        self.problems = problems
        self.fingerprint = fingerprint
        self.latencies = latencies or []


class BatchFit:
    """``PrivBayes(**config).fit(table)`` then ``model.sample(n)``."""

    def __init__(self, name: str, loader, config: Dict) -> None:
        self.name = name
        self._loader = loader
        self._config = config

    def setup(self, seed: int, workdir: Path):
        return {"table": self._loader(seed)}

    def job(self, state):
        table = state["table"]
        rng = release_rng()
        model = PrivBayes(**self._config).fit(table, rng)
        return model, model.sample(table.n, rng)

    def check(self, state, output) -> Outcome:
        table = state["table"]
        model, sample = output
        problems = check_model(model, table.d)
        problems += check_sample(sample, table.attributes, table.n)
        digest = table_digest(sample, model_digest(model))
        return Outcome(problems, digest.hexdigest())

    def teardown(self, state) -> None:
        pass


class StreamCsv:
    """CSV in, streaming fit, streaming release CSV out."""

    name = "stream-csv"
    config = dict(epsilon=1.0, k=2, mode="binary")

    def setup(self, seed: int, workdir: Path):
        path = workdir / "stream-input.csv"
        source = random_binary_source(STREAM_ROWS, STREAM_COLUMNS, seed=seed)
        csv_io.write_csv(source, path)
        return {
            "input": path,
            "output": workdir / "stream-release.csv",
        }

    def job(self, state):
        source = csv_io.CsvSource(state["input"])
        rng = release_rng()
        model = PrivBayes(**self.config).fit(source, rng)
        csv_io.write_csv(model.sample_chunks(source.n, rng), state["output"])
        return source, model

    def check(self, state, output) -> Outcome:
        source, model = output
        problems = check_model(model, source.d)
        if (source.n, source.d) != (STREAM_ROWS, STREAM_COLUMNS):
            problems.append(f"input CSV read as {source.n} x {source.d}")
        released = csv_io.CsvSource(state["output"])
        if released.n != STREAM_ROWS:
            problems.append(f"released CSV has {released.n} rows, want {STREAM_ROWS}")
        if released.attributes != source.attributes:
            problems.append("released CSV does not read back with the source schema")
        digest = model_digest(model)
        digest.update(state["output"].read_bytes())
        return Outcome(problems, digest.hexdigest())

    def teardown(self, state) -> None:
        for key in ("input", "output"):
            state[key].unlink(missing_ok=True)


class AdultServe:
    """Closed loop: 32 clients await ``CoalescingSampler.sample(100)``."""

    name = "adult-serve"
    config = PrivBayesConfig(epsilon=0.4, generalize=True)

    def setup(self, seed: int, workdir: Path):
        table = load_adult(seed=seed)
        service = SynthesisService(None)
        service.fit(
            "adult",
            table,
            self.config,
            rng=release_rng(),
            dataset_budget=self.config.epsilon,
        )
        state = {
            "service": service,
            "model": service.model("adult", self.config),
            "loop": asyncio.new_event_loop(),
            "d": table.d,
        }
        self.check(state, self.job(state))  # warms the sampling path
        return state

    async def _clients(self, sampler: CoalescingSampler):
        latencies: List[float] = []

        async def client():
            responses = []
            for _ in range(SERVE_REQUESTS_PER_CLIENT):
                start = time.perf_counter()
                responses.append(await sampler.sample(SERVE_ROWS_PER_REQUEST))
                latencies.append(time.perf_counter() - start)
            return responses

        per_client = await asyncio.gather(
            *(client() for _ in range(SERVE_CLIENTS))
        )
        return per_client, latencies

    def job(self, state):
        # A fresh sampler per round: the same stream must replay the same
        # responses, which is what the fingerprint check relies on.
        sampler = CoalescingSampler(state["model"], release_rng())
        try:
            per_client, latencies = state["loop"].run_until_complete(
                self._clients(sampler)
            )
        finally:
            sampler.close()
        return per_client, latencies, sampler.batch_request_counts

    def check(self, state, output) -> Outcome:
        per_client, latencies, batches = output
        model = state["model"]
        problems = check_model(model, state["d"])
        digest = model_digest(model)
        attributes = model.table_attributes
        for responses in per_client:
            for table in responses:
                problems += check_sample(table, attributes, SERVE_ROWS_PER_REQUEST)
                table_digest(table, digest)
        if sum(batches) != SERVE_CLIENTS * SERVE_REQUESTS_PER_CLIENT:
            problems.append(f"coalesced batches {batches} do not cover every request")
        return Outcome(problems, digest.hexdigest(), latencies)

    def teardown(self, state) -> None:
        state["service"].close()
        state["loop"].close()


WORKLOADS = {
    w.name: w
    for w in (
        BatchFit(
            "acs-fit",
            lambda seed: load_acs(n=ACS_ROWS, seed=seed),
            dict(epsilon=0.4, k=3),
        ),
        BatchFit(
            "adult-theta",
            lambda seed: load_adult(seed=seed),
            dict(epsilon=0.4, generalize=True),
        ),
        StreamCsv(),
        AdultServe(),
    )
}


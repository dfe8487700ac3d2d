"""Benchmark of fairfilter's training and scoring paths.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. Every
workload is built by `data.synth_generate` from --seed with the desk-scale
recipe (8 targets, 1-3 per post, dim 24, bias 2.0, noise 1.2; t0..t5 seen,
t6 and t7 unseen), and the package is driven only through public entry
points:

  train-d48   `trainer.fit` at desk width (hidden 48), 3 rounds
  train-d256  `trainer.fit` at TrainConfig's default width (hidden 256), 1 round
  score-d256  the `eval` command, in-process, over a 20k-post corpus with a
              seeded d=256 checkpoint written during set-up

Set-up runs several times and reports its median. Then the workload repeats
(one `fit` call or one `eval` command per repetition) until --seconds of
repetitions have run. The first repetition's outputs are checked: for
training the step count, finite losses and a falling loss over the first
discriminator epoch (test accuracy is printed, not gated); for scoring a
sample re-scored by a plain-numpy oracle and a `metrics` replay of the
written predictions. Every later repetition must reproduce them byte for
byte. A failed check fails every operation (step or post) of its
repetition.

With --trace 1 the untraced repetitions are followed by one traced
repetition, with spans recorded around the package functions listed in
SPANS (see spans.py); it reports per-span self time and calls, counts and
the tracing overhead, and checks that every span expected on the workload
fired and that the traced outputs equal the untraced ones bit for bit.

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics; the exit code is 0 only if every check
passed. Inputs, outputs and the span file go to .bench_work/.
"""

from __future__ import annotations

import os

# BLAS threads are pinned (at most nproc) before numpy is imported; one
# thread gives the steadiest timings on a shared machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "fairfilter" / "__init__.py").is_file():
    sys.exit(f"bench: no fairfilter package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import fairfilter  # noqa: E402
from fairfilter import (autodiff, cli, data, embeddings, heads,  # noqa: E402
                        hyperfilter, metrics, objectives, trainer)
from oracle import OracleScorer  # noqa: E402
from spans import Tracer  # noqa: E402

TARGETS = [f"t{i}" for i in range(8)]
SEEN, UNSEEN = TARGETS[:6], TARGETS[6:]
BATCH = 128
SETUP_REPEATS = 5

TRAIN = ("train-d48", "train-d256")
SCORE = ("score-d256",)
EVERY = TRAIN + SCORE

# span name, owner, attribute, workloads on which it must fire
SPANS = [
    ("autodiff.backward", autodiff, "backward", TRAIN),
    ("autodiff.adam_step", autodiff, "adam_step", TRAIN),
    ("trainer.fit", trainer, "fit", TRAIN),
    ("trainer.phase_discriminator", trainer, "phase_discriminator", TRAIN),
    ("trainer.phase_filter", trainer, "phase_filter", TRAIN),
    ("trainer.Model.filter_batch", trainer.Model, "filter_batch", EVERY),
    ("trainer.Model.predict", trainer.Model, "predict", EVERY),
    ("trainer.checkpoint_load", trainer, "checkpoint_load", SCORE),
    ("trainer.eval_indicators", trainer, "eval_indicators", SCORE),
    ("hyperfilter.target_theta", hyperfilter, "target_theta", EVERY),
    ("hyperfilter.ensemble_params", hyperfilter, "ensemble_params", EVERY),
    ("hyperfilter.apply_filter", hyperfilter, "apply_filter", EVERY),
    ("embeddings.encode_posts", embeddings, "encode_posts", EVERY),
    ("embeddings.load_word_vectors", embeddings, "load_word_vectors", SCORE),
    ("heads.ClassifierHead.forward", heads.ClassifierHead, "forward", EVERY),
    ("heads.DiscriminatorHead.forward", heads.DiscriminatorHead, "forward", TRAIN),
    ("objectives.loss_hate", objectives, "loss_hate", TRAIN),
    ("objectives.loss_dis", objectives, "loss_dis", TRAIN),
    ("objectives.loss_imi", objectives, "loss_imi", TRAIN),
    ("objectives.loss_reg", objectives, "loss_reg", TRAIN),
    ("data.synth_generate", data, "synth_generate", EVERY),
    ("data.load_jsonl", data, "load_jsonl", SCORE),
    ("metrics.build_report", metrics, "build_report", EVERY),
    ("cli.eval", cli.eval_cmd, "callback", SCORE),
]


def corpus_spec(n_posts: int, seed: int) -> data.SyntheticSpec:
    return data.SyntheticSpec(n_posts=n_posts, target_names=TARGETS,
                              label_rates={t: 0.5 for t in TARGETS},
                              signal_scale=0.8, bias_scale=2.0, noise=1.2,
                              dim=24, seed=seed)


def corpus_sha256(records) -> str:
    """Digest of the corpus as `save_jsonl` writes it."""
    digest = hashlib.sha256()
    for r in records:
        digest.update((json.dumps(r.to_json()) + "\n").encode("utf-8"))
    return digest.hexdigest()


def properties(corpus, batched) -> dict[str, float]:
    """Input properties the filter cost depends on; equal inputs give equal values."""
    unseen = set(UNSEEN)
    sets = [len({r.target_set for r in batched[i:i + BATCH]})
            for i in range(0, len(batched) - BATCH + 1, BATCH)]
    return {
        "workload.target_sets_per_batch": statistics.fmean(sets),
        "workload.multi_target_share":
            sum(len(r.targets) > 1 for r in corpus) / len(corpus),
        "workload.unseen_target_share":
            sum(bool(unseen & r.target_set) for r in corpus) / len(corpus),
    }


@dataclass
class Inputs:
    corpus: list            # every generated record
    batched: list           # the records the workload batches (train split or corpus)
    ops: int                # operations per repetition (steps or posts)
    posts: int              # posts processed per repetition
    extra: dict = field(default_factory=dict)


class TrainWorkload:
    """`trainer.fit` for a fixed number of rounds on a 5000-post corpus."""

    op_name = "steps"
    metric = "train_posts_per_s"

    n_posts = 5000
    dis_drop_floor = 0.1

    def __init__(self, name: str, width: dict, rounds: int):
        self.name = name
        self.width = width
        self.rounds = rounds

    def config(self, seed: int) -> trainer.TrainConfig:
        # patience >= max_rounds: early stopping never fires, so the step
        # count is fixed by the corpus
        return trainer.TrainConfig(**self.width, rank=1, depth=1,
                                   batch_size=BATCH, n_dis=1, n_filter=5,
                                   lr=1e-3, lr_dis=3e-3, max_rounds=self.rounds,
                                   patience=self.rounds, seed=seed)

    def setup(self, seed: int, work: Path) -> Inputs:
        spec = corpus_spec(self.n_posts, seed)
        records = data.synth_generate(spec)
        split = data.make_split(records, data.SplitSpec(
            seen_targets=SEEN, unseen_targets=UNSEEN, validation_fraction=0.15,
            balance_eval=True, seed=seed))
        cfg = self.config(seed)
        epochs = self.rounds * (cfg.n_dis + cfg.n_filter)
        steps = epochs * math.ceil(len(split.train) / cfg.batch_size)
        return Inputs(corpus=records, batched=split.train, ops=steps,
                      posts=epochs * len(split.train),
                      extra={"split": split, "indicators": data.synth_indicators(spec),
                             "config": cfg})

    def run(self, inputs: Inputs, work: Path):
        start = time.perf_counter()
        state = trainer.fit(inputs.extra["config"], inputs.extra["split"],
                            inputs.extra["indicators"])
        wall = time.perf_counter() - start
        losses = [[row[k] if row[k] != "" else None
                   for k in ("l_hate", "l_dis", "l_reg", "l_imi", "synergic")]
                  for row in state.telemetry]
        params = b"".join(tensor.data.tobytes()
                          for _, group in sorted(state.model.groups.items())
                          for _, tensor in sorted(group.tensors.items()))
        return wall, {"steps": state.global_step, "losses": losses,
                      "history": state.history, "params": params,
                      "model": state.model}

    def fingerprint(self, output) -> bytes:
        head = json.dumps([output["steps"], output["losses"], output["history"]])
        return head.encode("utf-8") + output["params"]

    def check(self, inputs: Inputs, output, seed: int, work: Path) -> list[str]:
        problems = []
        if output["steps"] != inputs.ops:
            problems.append(f"global_step {output['steps']} != expected {inputs.ops}")
        values = [v for row in output["losses"] for v in row if v is not None]
        values += [v for row in output["history"] for k, v in row.items()
                   if k.startswith("l_") or k == "synergic"]
        if not values or not all(math.isfinite(v) for v in values):
            problems.append("non-finite recorded loss")
        # the first discriminator epoch trains a supervised head on a frozen
        # filter, so its loss falls on every seed (by 0.24 nats or more over
        # seeds 1-15 at both widths)
        cfg = inputs.extra["config"]
        first = [row[1] for row in output["losses"][:math.ceil(len(inputs.batched) / BATCH)]]
        quarter = max(1, len(first) // 4)
        drop = statistics.fmean(first[:quarter]) - statistics.fmean(first[-quarter:])
        # test accuracy after 1-3 rounds ranges from 0.39 to 0.96 over seeds,
        # so it is reported, not gated
        test = inputs.extra["split"].test
        labels = np.array([r.label for r in test])
        scores = output["model"].predict(test, inputs.extra["indicators"])
        accuracy = float(np.mean((scores > cfg.threshold) == labels))
        print(f"check: first discriminator epoch loss drop {drop:.4f} nats "
              f"(floor {self.dis_drop_floor}); test accuracy {accuracy:.4f} on "
              f"{len(test)} posts")
        if not drop >= self.dis_drop_floor:
            problems.append(f"first discriminator epoch loss fell by {drop:.4f} "
                            f"< {self.dis_drop_floor}")
        return problems


class ScoreWorkload:
    """The `eval` command over a whole corpus with a seeded d=256 checkpoint."""

    op_name = "posts"
    metric = "score_posts_per_s"
    n_posts = 20000
    oracle_per_kind = 16

    def __init__(self, name: str):
        self.name = name

    def setup(self, seed: int, work: Path) -> Inputs:
        spec = corpus_spec(self.n_posts, seed)
        records = data.synth_generate(spec)
        indicators = data.synth_indicators(spec)
        paths = {"corpus": work / "corpus.jsonl", "vectors": work / "vectors.txt",
                 "checkpoint": work / "checkpoint.npz"}
        data.save_jsonl(records, paths["corpus"])
        embeddings.save_word_vectors(
            {tok: indicators[name] for name in TARGETS
             for tok in embeddings.tokenize_target(name)}, paths["vectors"])
        trainer.checkpoint_save(self.seeded_model(spec, indicators, seed),
                                paths["checkpoint"])
        return Inputs(corpus=records, batched=records, ops=len(records),
                      posts=len(records), extra=paths)

    @staticmethod
    def seeded_model(spec: data.SyntheticSpec, indicators, seed: int) -> trainer.Model:
        """A model at TrainConfig's default width with seeded random parameters.

        Scoring cost does not depend on trained values. Weights are normal
        with standard deviation 1/sqrt(fan_in), biases with 0.1, and the
        hypernetwork's output layer is scaled by 3, so filtered embeddings have
        about unit RMS and scores spread over (0, 1); a fresh model's scores
        all sit within 1e-3 of 0.5, where the oracle comparison would be blunt.
        """
        model = trainer.Model(trainer.TrainConfig(seed=seed), spec.dim, spec.dim,
                              SEEN, indicators)
        rng = np.random.default_rng(seed)
        for gname, group in model.groups.items():
            state = {}
            for key, tensor in group.tensors.items():
                shape = tensor.data.shape
                scale = 1.0 / math.sqrt(shape[0]) if len(shape) == 2 else 0.1
                if gname == "hyper" and key.endswith(".W1"):
                    scale *= 3.0
                state[key] = rng.normal(scale=scale, size=shape)
            group.load_state_dict(state)
        return model

    def _cli(self, args: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(args, prog_name="fairfilter", standalone_mode=False)

    def run(self, inputs: Inputs, work: Path):
        p, out = inputs.extra, work / "eval"
        args = ["eval", str(p["checkpoint"]), str(p["corpus"]), str(p["vectors"]),
                "-o", str(out)]
        start = time.perf_counter()
        self._cli(args)
        wall = time.perf_counter() - start
        return wall, {"predictions": (out / "predictions.csv").read_bytes(),
                      "report": (out / "report.json").read_bytes()}

    def fingerprint(self, output) -> bytes:
        return output["predictions"] + output["report"]

    def _oracle_sample(self, records, seed: int) -> tuple[list, int]:
        """Up to `oracle_per_kind` posts of each kind: single/multi-target x seen/unseen."""
        rng = np.random.default_rng(seed)
        unseen = set(UNSEEN)
        kinds: dict[tuple[bool, bool], list] = {}
        for r in records:
            kinds.setdefault((len(r.targets) > 1, bool(unseen & r.target_set)),
                             []).append(r)
        sample = []
        for key in sorted(kinds):
            pool = kinds[key]
            picks = rng.choice(len(pool), size=min(self.oracle_per_kind, len(pool)),
                               replace=False)
            sample.extend(pool[i] for i in sorted(picks))
        return sample, len(kinds)

    def check(self, inputs: Inputs, output, seed: int, work: Path) -> list[str]:
        problems = []
        p = inputs.extra
        rows = list(csv.reader(io.StringIO(output["predictions"].decode("utf-8"))))
        scores = {row[0]: float(row[1]) for row in rows[1:]}
        if [row[0] for row in rows[1:]] != [r.id for r in inputs.corpus]:
            problems.append("predictions.csv does not list every post in corpus order")
        report = json.loads(output["report"])
        if report["metadata"]["n_records"] != len(inputs.corpus) \
                or report["metadata"]["warning_count"] != 0:
            problems.append("report excludes posts or carries warnings")

        sample, kinds = self._oracle_sample(inputs.corpus, seed)
        if kinds != 4:
            problems.append(f"oracle sample covers {kinds} of 4 post kinds")
        wanted = {r.id for r in sample}
        posts = {}
        with open(p["corpus"], encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                if obj["id"] in wanted:
                    posts[obj["id"]] = obj
        oracle = OracleScorer(p["checkpoint"], p["vectors"])
        worst = max(abs(oracle.score(posts[i]["embedding"], posts[i]["targets"])
                        - scores.get(i, math.inf)) for i in wanted)
        print(f"check: oracle re-scored {len(wanted)} posts, worst |diff| {worst:.2e}")
        if not worst <= 1e-9:
            problems.append(f"oracle disagrees by {worst:.3e} > 1e-9")

        replay = work / "replay.json"
        self._cli(["metrics", str(work / "eval" / "predictions.csv"), str(p["corpus"]),
                   "-o", str(replay)])
        replayed = json.loads(replay.read_text(encoding="utf-8"))
        for key in ("accuracy", "f1", "auc", "nfped", "nfned", "hf", "per_target",
                    "excluded_fpr", "excluded_fnr"):
            if replayed[key] != report[key]:
                problems.append(f"metrics replay differs from report.json on '{key}'")
        return problems


WORKLOADS = {
    "train-d48": TrainWorkload("train-d48", {"hidden_dim": 48, "hyper_hidden": 32,
                                             "head_hidden": 48},
                               rounds=3),
    "train-d256": TrainWorkload("train-d256", {}, rounds=1),
    "score-d256": ScoreWorkload("score-d256"),
}


class WarningCounter:
    """Counts RuntimeWarnings while still printing each distinct one once."""

    def __init__(self):
        self._shown: set = set()

    @contextlib.contextmanager
    def counting(self):
        box = [0]
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            show = warnings.showwarning

            def counted(message, category, filename, lineno, file=None, line=None):
                if issubclass(category, RuntimeWarning):
                    box[0] += 1
                    key = (str(message), filename, lineno)
                    if key in self._shown:
                        return
                    self._shown.add(key)
                show(message, category, filename, lineno, file, line)

            warnings.showwarning = counted
            yield box


@dataclass
class Rep:
    wall: float
    output: object = None
    warnings: int = 0
    problems: list = field(default_factory=list)


def run_rep(workload, inputs: Inputs, work: Path, counter: WarningCounter) -> Rep:
    start = time.perf_counter()
    with counter.counting() as box:
        try:
            wall, output = workload.run(inputs, work)
        except (Exception, SystemExit):  # a failed operation is reported, not fatal
            traceback.print_exc()
            return Rep(wall=time.perf_counter() - start, warnings=box[0],
                       problems=["repetition raised"])
    return Rep(wall=wall, output=output, warnings=box[0])


def check_reps(workload, inputs: Inputs, reps: list[Rep], seed: int, work: Path) -> None:
    """Full checks on the first repetition; later ones must match it byte for byte."""
    reference = None
    for rep in reps:
        if rep.output is None:
            continue
        if reference is None:
            try:
                rep.problems = workload.check(inputs, rep.output, seed, work)
            except (Exception, SystemExit):  # a check that cannot run fails
                traceback.print_exc()
                rep.problems = ["output check raised"]
            reference = workload.fingerprint(rep.output)
        elif workload.fingerprint(rep.output) != reference:
            rep.problems = ["outputs differ from the first repetition"]


@contextlib.contextmanager
def traced_by(tracer: Tracer | None):
    """Spans around every SPANS entry and a Tensor construction count, if tracing."""
    if tracer is None:
        yield
        return
    for name, owner, attr, _ in SPANS:
        tracer.patch(name, owner, attr)
    tracer.count("autodiff.tensors", autodiff.Tensor, "__init__")
    try:
        yield
    finally:
        tracer.restore()


def trace_metrics(tracer: Tracer, workload, inputs: Inputs, traced: Rep,
                  untraced: list[Rep], tensors: int) -> dict[str, dict]:
    """Per-span self time and calls, counts and overhead; runs the span self-test."""
    summary = tracer.summary()
    if traced.output is not None:
        tracer.save(WORK / workload.name / "spans.json")
    missing = [name for name, _, _, where in SPANS
               if workload.name in where and name not in summary]
    if missing:
        traced.problems.append(f"span self-test: never fired: {missing}")
    print(f"span self-test: {len(SPANS) - len(missing)} of {len(SPANS)} spans fired")
    out = {}
    for name, _, _, _ in SPANS:
        entry = summary.get(name, {"self_s": 0.0, "calls": 0})
        out[f"{name}.self_s"] = {"value": entry["self_s"], "unit": "s"}
        out[f"{name}.calls"] = {"value": entry["calls"], "unit": "count"}
    steps = inputs.ops if workload.op_name == "steps" else 0
    out["autodiff.nodes_per_step"] = {"value": tensors / steps if steps else 0.0,
                                      "unit": "count"}
    out["autodiff.numeric_warnings"] = {"value": traced.warnings, "unit": "count"}
    overhead = traced.wall / statistics.median(r.wall for r in untraced) - 1.0
    out["trace.overhead_share"] = {"value": overhead, "unit": "share"}
    return out


def environment() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')} with {BLAS_THREADS} "
            f"thread(s), nproc {len(os.sched_getaffinity(0))}")


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q = statistics.quantiles(values, n=4)
    return f"{q[0]:.6g}..{q[2]:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(fairfilter.__file__).resolve().parent != SRC / "fairfilter":
        print(f"bench: imported fairfilter from {fairfilter.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    counter = WarningCounter()
    print(f"bench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"environment: {environment()}")

    tracer = Tracer() if args.trace else None
    setup_times = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        with traced_by(tracer):
            start = time.perf_counter()
            inputs = workload.setup(args.seed, work)
            setup_times.append(time.perf_counter() - start)
    props = properties(inputs.corpus, inputs.batched)
    print(f"inputs: corpus sha256 {corpus_sha256(inputs.corpus)}, "
          f"{len(inputs.corpus)} posts; per repetition {inputs.ops} "
          f"{workload.op_name}, {inputs.posts} posts; "
          + ", ".join(f"{k}={v:.6g}" for k, v in props.items()))

    reps: list[Rep] = []
    while not reps or sum(r.wall for r in reps) < args.seconds:
        reps.append(run_rep(workload, inputs, work, counter))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = None
    if tracer:
        tensors_before = tracer.counts.get("autodiff.tensors", 0)
        with traced_by(tracer):
            traced = run_rep(workload, inputs, work, counter)
        tensors = tracer.counts["autodiff.tensors"] - tensors_before
        reps.append(traced)
    check_reps(workload, inputs, reps, args.seed, work)

    untraced = [r for r in reps if r is not traced]
    rates = [inputs.posts / r.wall for r in untraced if r.output is not None
             and not r.problems]
    print(f"repetitions: {len(untraced)} untraced, wall s "
          + ", ".join(f"{r.wall:.4f}" for r in untraced))
    metrics_out: dict[str, dict] = {}
    if tracer:
        print(f"traced repetition: wall s {traced.wall:.4f}, outputs "
              f"{'equal' if not traced.problems else 'NOT equal'} to the untraced ones")
        metrics_out = trace_metrics(tracer, workload, inputs, traced, untraced, tensors)
        metrics_out.update({k: {"value": v, "unit": "share" if "share" in k else "count"}
                            for k, v in props.items()})
    else:
        if rates:
            metrics_out["posts_per_s"] = {"value": statistics.median(rates),
                                          "unit": "1/s"}
            print(f"{workload.metric}: {statistics.median(rates):.6g} 1/s "
                  f"(median of {len(rates)}, quartiles {quartiles(rates)})")
        metrics_out["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
        metrics_out["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        print(f"peak_rss_mb: {peak_rss_mb:.6g} MiB")
        print(f"setup_s: {statistics.median(setup_times):.6g} s (median of "
              f"{len(setup_times)}, each {', '.join(f'{t:.4f}' for t in setup_times)})")

    attempted = inputs.ops * len(reps)
    failed = inputs.ops * sum(1 for r in reps if r.output is None or r.problems)
    print(f"autodiff.numeric_warnings: {[r.warnings for r in reps]} per repetition")
    print(f"failed_share: {failed / attempted:.6g} ({failed} of {attempted} "
          f"{workload.op_name})")
    for i, rep in enumerate(reps):
        for problem in rep.problems:
            print(f"FAILED repetition {i}: {problem}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

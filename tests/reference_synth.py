"""The synthetic corpus generator written as one loop over posts, as a
reference for `data.synth_generate`.

Each post draws its target count, its targets, its label and its noise from
one generator and forms its own embedding, one numpy operation at a time.
`synth_generate` makes the same draws in the same order and the same
element-wise operations after its loop, so both give the same records, down
to the embedding bytes.
"""

from __future__ import annotations

import numpy as np

from fairfilter.data import PostRecord, SyntheticSpec, synth_directions


def synth_generate(spec: SyntheticSpec) -> list[PostRecord]:
    spec.validate()
    u, directions = synth_directions(spec)
    rng = np.random.default_rng(spec.seed + 1)
    names = list(spec.target_names)
    if len(names) == 1:
        betas = {names[0]: spec.bias_scale}
    else:
        ramp = np.linspace(0.0, 2.0, len(names))
        betas = {t: spec.bias_scale * ramp[j] for j, t in enumerate(names)}
    records = []
    width = len(str(max(spec.n_posts - 1, 0)))
    for i in range(spec.n_posts):
        k = int(rng.integers(1, min(3, len(names)) + 1))
        chosen = sorted(rng.choice(len(names), size=k, replace=False).tolist())
        targets = tuple(names[j] for j in chosen)
        rate = float(np.mean([spec.label_rates[t] for t in targets]))
        y = int(rng.random() < rate)
        x = spec.signal_scale * y * u
        for t in targets:
            coeff = 1.0 + betas[t] * (2 * y - 1)
            x = x + coeff * directions[t] / len(targets)
        if spec.noise > 0:
            x = x + rng.normal(scale=spec.noise, size=spec.dim)
        records.append(PostRecord(id=f"s{i:0{width}d}", targets=targets,
                                  label=y, embedding=x))
    return records


def to_json(record: PostRecord) -> dict:
    """`PostRecord.to_json` with the embedding written float by float."""
    out: dict = {"id": record.id, "targets": list(record.targets), "label": record.label}
    if record.text is not None:
        out["text"] = record.text
    if record.embedding is not None:
        out["embedding"] = [float(v) for v in record.embedding]
    return out

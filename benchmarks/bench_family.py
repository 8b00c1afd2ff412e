"""Few-shot fine-tuning benchmark: family warm start vs from-scratch.

The foundation-style contract of ``repro.family`` (ISSUE 10): training
one scenario-conditioned surrogate over a family of scenarios buys
*few-shot adaptation* — fine-tuning the family checkpoint to a held-out
member must reach engineering accuracy in **at most half** the
iterations a from-scratch run of the *same* conditioned architecture
needs on that member.

Methodology
-----------
The shipped ``examples/scenarios/family_htc_sweep.json`` family (dual
narrow-HTC sub-ranges sampled from the [200, 1500] W/m^2K envelope) is
trained round-robin for ``FAMILY_ITERATIONS``.  For each of
``N_HOLDOUTS`` held-out members (``ScenarioFamily.holdout`` — drawn
from the same distribution, never trained on):

* the ground truth is an FDM solve of the member's mid-range HTC design
  on the member's evaluation grid (``reference_solution``, the same
  oracle every other bench trusts);
* accuracy is the relative **peak temperature-rise** error
  ``|dT_sur - dT_fdm| / dT_fdm`` with ``dT = peak - t_ambient`` —
  relative rise, not absolute kelvin, so the ~298 K ambient offset
  cannot mask errors;
* *fine-tune*: the member model warm-starts from the family checkpoint
  and a one-member ``Trainer`` (``TrainerConfig()`` defaults) advances
  it in ``CHUNK``-iteration steps, evaluating after each chunk; the
  recorded number is the first iteration count at or below
  ``THRESHOLD`` (5%);
* *from-scratch*: an identically-shaped conditioned member model with
  fresh random init runs the same chunked schedule — the baseline
  isolates exactly the value of the warm start.

Both sides share seeds, collocation plans and optimizer settings; the
only difference is the initial parameters.  The acceptance gate —
asserted in full runs, recorded in ``BENCH_family.json`` — is
``ft_iterations <= MAX_RATIO * scratch_iterations`` for every holdout.

``REPRO_SMOKE=1`` (the CI ``family-smoke`` job) shrinks the family to
2 members / 60 round-robin iterations and checks one holdout,
asserting only that fine-tuning converges (monotone machinery, not
ratios: shared runners are too noisy and the smoke family too shallow
for a stable warm-start advantage).
"""

import json
from pathlib import Path

import numpy as np
from conftest import SMOKE

from repro.core import Trainer, TrainerConfig
from repro.family import ScenarioFamily

FAMILY_PATH = (Path(__file__).parent.parent
               / "examples" / "scenarios" / "family_htc_sweep.json")

FAMILY_ITERATIONS = 60 if SMOKE else 600
N_HOLDOUTS = 1 if SMOKE else 3
CHUNK = 10
MAX_ITERATIONS = 120 if SMOKE else 300
THRESHOLD = 0.05
MAX_RATIO = 0.5


def _family() -> ScenarioFamily:
    family = ScenarioFamily.from_json(FAMILY_PATH)
    if SMOKE:
        family.n_members = 2
    return family


def _member_trainer(compiled, member) -> tuple:
    """(trainer, model) for one member under ``TrainerConfig()`` defaults."""
    setup = compiled.member_setup(member)
    return Trainer([(setup.model, setup.plan)], TrainerConfig()), setup.model


def _peak_rise_error(model, member, design, truth_peak, grid) -> float:
    fields = model.predict_many_uncached([design], grid.points())
    surrogate_rise = float(fields.max()) - member.t_ambient
    truth_rise = truth_peak - member.t_ambient
    return abs(surrogate_rise - truth_rise) / abs(truth_rise)


def _first_pass(trainer, model, member, design, truth_peak, grid):
    """(first-passing iteration count or None, [(iters, error), ...])."""
    iterations = 0
    curve = []
    while iterations < MAX_ITERATIONS:
        trainer.advance(CHUNK)
        iterations += CHUNK
        error = _peak_rise_error(model, member, design, truth_peak, grid)
        curve.append({"iterations": iterations, "error": error})
        if error <= THRESHOLD:
            return iterations, curve
    return None, curve


def test_family_finetune_beats_scratch(out_dir):
    """Fine-tune reaches <= 5% FDM peak-rise error in <= 50% of scratch."""
    family = _family()
    compiled = family.compile()
    trainer = compiled.make_trainer()
    trainer.config.iterations = FAMILY_ITERATIONS
    history = trainer.run()
    family_params = [p.data.copy() for p in compiled.net.parameters()]

    holdouts = []
    for index in range(N_HOLDOUTS):
        member = family.holdout(index)
        plain = member.compile()
        grid = plain.eval_grid
        design = {
            encoder.name: np.float64((spec.low + spec.high) / 2.0)
            for encoder, spec in zip(plain.model.inputs, member.inputs)
        }
        truth_peak = float(
            plain.model.reference_solution(design, grid).to_array().max()
        )
        conditioned = dict(design)
        conditioned["scenario_conditioning"] = (
            family.conditioning_vector(member)
        )

        # Fine-tune: warm-start the member model from the family weights.
        warm = family.compile()
        for param, array in zip(warm.net.parameters(), family_params):
            param.data[...] = array
        ft_trainer, ft_model = _member_trainer(warm, member)
        ft_initial = _peak_rise_error(ft_model, member, conditioned,
                                      truth_peak, grid)
        ft_iters, ft_curve = _first_pass(ft_trainer, ft_model, member,
                                         conditioned, truth_peak, grid)

        # From-scratch: identical architecture, fresh random init.
        scratch = family.compile()
        sc_trainer, sc_model = _member_trainer(scratch, member)
        sc_initial = _peak_rise_error(sc_model, member, conditioned,
                                      truth_peak, grid)
        sc_iters, sc_curve = _first_pass(sc_trainer, sc_model, member,
                                         conditioned, truth_peak, grid)

        holdouts.append({
            "holdout": index,
            "member": member.name,
            "member_digest": member.content_digest()[:16],
            "fdm_peak_kelvin": truth_peak,
            "fdm_rise_kelvin": truth_peak - member.t_ambient,
            "finetune_initial_error": ft_initial,
            "finetune_iterations_to_5pct": ft_iters,
            "finetune_curve": ft_curve,
            "scratch_initial_error": sc_initial,
            "scratch_iterations_to_5pct": sc_iters,
            "scratch_curve": sc_curve,
        })

    record = {
        "family": family.name,
        "family_digest": family.content_digest()[:16],
        "smoke": SMOKE,
        "family_iterations": FAMILY_ITERATIONS,
        "family_final_loss": float(history.total_loss[-1]),
        "chunk": CHUNK,
        "max_iterations": MAX_ITERATIONS,
        "threshold": THRESHOLD,
        "max_ratio": MAX_RATIO,
        "holdouts": holdouts,
    }
    lines = [
        f"family fine-tune vs scratch "
        f"({family.name}, {FAMILY_ITERATIONS} family iterations, "
        f"threshold {THRESHOLD:.0%} FDM peak-rise error)",
    ]
    for entry in holdouts:
        ft, sc = (entry["finetune_iterations_to_5pct"],
                  entry["scratch_iterations_to_5pct"])
        ratio = "n/a" if (ft is None or sc is None) else f"{ft / sc:.2f}"
        lines.append(
            f"holdout {entry['holdout']} ({entry['member_digest']}): "
            f"fine-tune {ft} it vs scratch {sc} it (ratio {ratio}, "
            f"initial {entry['finetune_initial_error']:.3f} vs "
            f"{entry['scratch_initial_error']:.3f})"
        )
    text = "\n".join(lines) + "\n"
    (out_dir / "family.txt").write_text(text)
    (out_dir / "family.json").write_text(json.dumps(record, indent=2) + "\n")
    print("\n" + text)

    for entry in holdouts:
        ft = entry["finetune_iterations_to_5pct"]
        assert ft is not None, (
            f"fine-tune never reached {THRESHOLD:.0%} peak-rise error in "
            f"{MAX_ITERATIONS} iterations on holdout {entry['holdout']} "
            f"(curve: {entry['finetune_curve'][-3:]})"
        )
        if SMOKE:
            continue  # ratios need the deep family; smoke checks convergence
        sc = entry["scratch_iterations_to_5pct"] or MAX_ITERATIONS
        assert ft <= MAX_RATIO * sc, (
            f"holdout {entry['holdout']}: fine-tune took {ft} iterations, "
            f"more than {MAX_RATIO:.0%} of the {sc}-iteration from-scratch "
            f"baseline"
        )

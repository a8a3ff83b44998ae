"""Watch a wrong attack hypothesis get eliminated.

Same two-sensor plant as the observer tour, but now the attacker is real:
a persistent injection on sensor 1.  Hypothesis 1 ("sensor 1 attacked")
treats that channel as untrusted and stays clean.  Hypothesis 2 trusts
sensor 1, so the injection lands straight in its attack-free residual.
The injection is small enough to hide inside the loose early threshold
(which still carries the initial-uncertainty transient), but as the
threshold tightens toward its steady state the hypothesis trips and is
dropped.  The survivor set collapses to the truth and the fused state
ball tightens accordingly.

Run:  python3 demos/elimination_demo.py
"""

import numpy as np

from smio.model import AttackSignal, SystemModel, enumerate_modes
from smio.sim import ScenarioConfig, run_pipeline


def build_plant():
    return SystemModel(
        A=np.diag([0.3, 0.4]),
        B=np.array([[1.0], [0.0]]),
        C=np.eye(2),
        D=np.array([[0.0], [0.5]]),
        G=np.zeros((2, 0)),
        H=np.eye(2),
        eta_w=0.01,
        eta_v=0.001,
        delta_x0=0.2,
    )


def main():
    model = build_plant()
    modes = enumerate_modes(0, 2, 1, model.G, model.H)
    true_mode = modes[0]  # sensor 1 really is the attacked channel
    horizon = 20

    # A quiet attacker: constant bias above the noise floor but below the
    # early transient threshold, so the wrong hypothesis survives a bit.
    attack = AttackSignal(mode=true_mode, values=np.full((horizon + 1, 1), 0.025))

    cfg = ScenarioConfig(
        model=model,
        modes=tuple(modes),
        true_mode=true_mode.id,
        horizon=horizon,
        attack=attack,
        noise_seed=11,
    )
    trace = run_pipeline(cfg)

    print("true mode:", cfg.true_mode, "(attacked sensors",
          true_mode.sensor_set, "), injection = +0.025 on sensor 1\n")
    print(" k | hyp1 r/thresh      | hyp2 r/thresh      | active")
    print("---+--------------------+--------------------+-------")
    for k in range(1, horizon + 1):
        cells = []
        for i, q in enumerate(trace.mode_ids):
            if not trace.live[k, i]:  # no residual test once eliminated
                cells.append("     (frozen)      ")
            else:
                flag = "*" if k == trace.eliminated_at[q] else " "
                cells.append(f"{trace.r_norm[k, i]:7.4f}/{trace.delta_hat[k, i]:7.4f} {flag}")
        print(f"{k:2d} | {cells[0]} | {cells[1]} | {trace.active_sets[k]}")

    print("\neliminated_at:", trace.eliminated_at)
    print("final active set:", trace.final_active)
    print("containment violations for the true mode:", trace.containment_violations)

    # The fused estimate is the union of the survivors' balls
    # (xhat[k, i], delta_x[k, i]); once the wrong hypothesis dies it is just
    # the true observer's ball.
    def fused_radius(k):
        return max(
            trace.delta_x[k, i]
            for i, q in enumerate(trace.mode_ids)
            if q in trace.active_sets[k]
        )

    print(f"\nfused state ball radius: {fused_radius(1):.4f} (step 1, both hypotheses)"
          f" -> {fused_radius(-1):.4f} (final, survivors {trace.final_active})")

    kill = trace.eliminated_at[2]
    assert kill is not None and trace.final_active == (1,), "expected hypothesis 2 to die"
    print(f"\nHypothesis 2 was dropped at step {kill}: it trusted the attacked")
    print("sensor, so the injection appeared in the part of its residual that")
    print("bounded noise alone can never explain.")


if __name__ == "__main__":
    main()

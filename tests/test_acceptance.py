"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 9 uses a
10,000-sample MNIST subset when IDX files are present (see README) and the
synthetic teacher task otherwise.
"""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from gaitprop import (
    bp_updates,
    correction_matrices,
    forward,
    gait_targets,
    gait_updates,
    itp_targets,
    itp_updates,
    ortho_penalty,
    ortho_reg_grad,
    tp_targets,
    tp_updates,
)
from gaitprop.harness import ExperimentConfig, equilibrium_sweep, gridsearch, train
from gaitprop.linalg import make_rng

from conftest import (fd_weight_grad, loss_to_target, make_net, quadratic_loss,
                      sample_away_from_kinks)
from test_rules import crafted_kink_family, linear_net, update_chain_f

GAMMA = 1e-3

MNIST_DIR = Path(os.environ.get("GAITPROP_MNIST_DIR", "data/mnist"))
MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def report(criterion: int, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_linear_equivalence():
    worst = 0.0
    for seed in range(20):
        rng = make_rng(1000 + seed)
        net = linear_net(16, 4, rng)
        trace = forward(net, rng.standard_normal(16))
        t = rng.standard_normal(16)
        bp = bp_updates(net, trace, t)
        tp = tp_updates(trace, tp_targets(net, trace, t))
        for l in range(net.depth):
            f = update_chain_f(net, l)
            rel = np.linalg.norm(bp[l] - f.T @ f @ tp[l]) \
                / np.linalg.norm(bp[l])
            worst = max(worst, rel)
    report(1, worst < 1e-10,
           f"linear BP = F^T F * TP on 20 nets, worst rel {worst:.2e} (< 1e-10)")


def test_criterion_2_linear_orthogonal_identity():
    worst = 0.0
    for seed in range(20):
        rng = make_rng(2000 + seed)
        net = linear_net(16, 4, rng, orthogonal=True)
        trace = forward(net, rng.standard_normal(16))
        t = rng.standard_normal(16)
        bp = bp_updates(net, trace, t)
        tp = tp_updates(trace, tp_targets(net, trace, t))
        for l in range(net.depth):
            rel = np.linalg.norm(bp[l] - tp[l]) \
                / np.linalg.norm(bp[l])
            worst = max(worst, rel)
    report(2, worst < 1e-10,
           f"orthogonal linear TP = BP on 20 nets, worst rel {worst:.2e} (< 1e-10)")


def test_criterion_3_gait_bp_equivalence():
    worst_eq = 0.0
    worst_cos = 1.0
    flip_free = 0
    total = 0
    for seed in range(3):
        rng = make_rng(3000 + seed)
        net = make_net([16] * 4, 10, seed=seed)
        xs = rng.uniform(0, 1, (16, 64))
        trace = forward(net, xs)
        ts = trace.output() + rng.normal(0, 0.5, (10, 64))
        stack = gait_targets(net, trace, ts, GAMMA)
        bp_all = bp_updates(net, trace, ts)
        gait_all = gait_updates(trace, stack)
        # aggregate cosine over all samples, flips included
        for l in range(net.depth):
            a, b = gait_all[l].ravel(), bp_all[l].ravel()
            worst_cos = min(worst_cos, a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        # exact equality sample by sample where no kink was crossed
        total += 64
        for i in np.nonzero(stack.sign_flips == 0)[0]:
            flip_free += 1
            tr_i = forward(net, xs[:, [i]])
            st_i = gait_targets(net, tr_i, ts[:, [i]], GAMMA)
            bp_i = bp_updates(net, tr_i, ts[:, [i]])
            g_i = gait_updates(tr_i, st_i)
            for l in range(net.depth):
                rel = np.linalg.norm(g_i[l] - bp_i[l]) \
                    / np.linalg.norm(bp_i[l])
                worst_eq = max(worst_eq, rel)
    ok = worst_eq < 1e-9 and worst_cos > 0.999 and flip_free >= total // 2
    report(3, ok,
           f"scaled GAIT = BP on {flip_free}/{total} flip-free samples "
           f"(worst rel {worst_eq:.2e} < 1e-9); all-sample per-layer "
           f"cosine {worst_cos:.6f} > 0.999")


def test_criterion_4_order_of_gamma_convergence():
    instances, x, pins = crafted_kink_family(seed=300)

    def mean_deviation(gamma):
        total = 0.0
        for (net, t), pin in zip(instances, pins):
            trace = forward(net, x)
            stack = gait_targets(net, trace, t, gamma)
            gait = gait_updates(trace, stack)
            bp = bp_updates(net, trace, t)
            worst = 0.0
            for l in range(net.depth - 1):
                n_mat = correction_matrices(net, trace, l).gait
                rel = np.linalg.norm(n_mat @ gait[l] - bp[l]) \
                    / np.linalg.norm(bp[l])
                worst = max(worst, rel)
            total += worst
        return total / len(instances)

    factor = mean_deviation(1e-3) / mean_deviation(1e-4)
    report(4, 3.0 <= factor <= 30.0,
           f"N-corrected GAIT deviation shrinks {factor:.2f}x for gamma "
           "1e-3 -> 1e-4 (accept [3, 30])")


def test_criterion_5_gradient_ground_truth():
    rng = make_rng(5000)
    worst = 0.0
    # quadratic loss
    net = make_net([8, 8, 8], 5, seed=50)
    x = sample_away_from_kinks(net, rng, margin=1e-4)
    t = rng.standard_normal(5)
    upd = bp_updates(net, forward(net, x), t)
    for l in range(net.depth):
        fd = fd_weight_grad(lambda: quadratic_loss(net, x, t), net, l)
        worst = max(worst, np.linalg.norm(-upd[l] - fd) / np.linalg.norm(fd))
    # softmax cross-entropy through the loss-to-target construction
    net2 = make_net([8, 8, 8], 5, seed=51)
    x2 = sample_away_from_kinks(net2, rng, margin=1e-4)
    label = 3

    def ce_loss():
        out = forward(net2, x2).output()[:, 0]
        z = out - out.max()
        return -(z[label] - np.log(np.exp(z).sum()))

    trace2 = forward(net2, x2)
    out = trace2.output()[:, 0]
    soft = np.exp(out - out.max())
    soft /= soft.sum()
    target = loss_to_target(out, soft - np.eye(5)[label])
    upd2 = bp_updates(net2, trace2, target)
    for l in range(net2.depth):
        fd = fd_weight_grad(ce_loss, net2, l)
        worst = max(worst, np.linalg.norm(-upd2[l] - fd) / np.linalg.norm(fd))
    report(5, worst < 1e-5,
           f"BP matches central differences (quadratic and softmax-CE), "
           f"worst rel {worst:.2e} (< 1e-5)")


def test_criterion_6_regularizer_gradient():
    rng = make_rng(6000)
    w = rng.standard_normal((6, 6))
    lam = 0.7
    step = 1e-6
    worst = 0.0
    for mode in ("mask", "product"):
        grad = ortho_reg_grad(w, lam, mode)
        fd = np.zeros_like(w)
        for i in range(6):
            for j in range(6):
                up, down = w.copy(), w.copy()
                up[i, j] += step
                down[i, j] -= step
                fd[i, j] = (ortho_penalty(up, lam, mode)
                            - ortho_penalty(down, lam, mode)) / (2 * step)
        worst = max(worst, np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    report(6, worst < 1e-5,
           f"regularizer gradient matches differences in both readings, "
           f"worst rel {worst:.2e} (< 1e-5)")


def test_criterion_7_equilibrium_dynamics():
    rows = equilibrium_sweep([0.0, 0.1, 0.25, 0.4], seed=7)
    worst = max(max(r["err_before_onset"], r["err_after_onset"]) for r in rows)
    diverged = any(r["diverged"] for r in rows)
    report(7, worst < 1e-5 and not diverged,
           f"circuit equilibria match closed form for nu in "
           f"{{0, 0.1, 0.25, 0.4}}, worst err {worst:.2e} (< 1e-5)")


def test_criterion_8_auxiliary_freeze():
    rng = make_rng(8000)
    net = make_net([16, 12, 8], 4, seed=80)
    xs = rng.uniform(0, 1, (16, 100))
    trace = forward(net, xs)
    ts = trace.output() + rng.normal(0, 0.3, (4, 100))
    updates = {
        "tp": tp_updates(trace, tp_targets(net, trace, ts)),
        "itp": itp_updates(trace, itp_targets(net, trace, ts, GAMMA)),
        "gait": gait_updates(trace, gait_targets(net, trace, ts, GAMMA)),
    }
    all_zero = all(
        np.all(upd[l][net.layers[l].forward_width:] == 0.0)
        for upd in updates.values() for l in range(net.depth)
    )
    report(8, all_zero,
           "auxiliary-row updates are exactly zero for TP/ITP/GAIT over "
           "100 samples in a variable-width net")


def _mnist_available() -> bool:
    return all((MNIST_DIR / f).exists() for f in MNIST_FILES)


def test_criterion_9_desk_scale_training_parity():
    if _mnist_available():
        base = ExperimentConfig(
            width=784, depth=3, classes=10, dataset="idx",
            train_images=str(MNIST_DIR / MNIST_FILES[0]),
            train_labels=str(MNIST_DIR / MNIST_FILES[1]),
            test_images=str(MNIST_DIR / MNIST_FILES[2]),
            test_labels=str(MNIST_DIR / MNIST_FILES[3]),
            train_samples=10_000, test_samples=10_000,
            batch_size=64, epochs=10, seed=0)
        task = "10k-sample MNIST subset"
    else:
        base = ExperimentConfig(
            width=16, depth=3, classes=4, dataset="synthetic",
            teacher_depth=2, train_samples=2000, test_samples=1000,
            batch_size=16, epochs=10, seed=0, data_seed=1234)
        task = "synthetic teacher task (MNIST files absent)"
    records = {rule: train(replace(base, rule=rule))
               for rule in ("bp", "gait", "tp")}
    gap = abs(records["bp"].final_test_acc - records["gait"].final_test_acc)
    ordering = records["tp"].final_train_acc < records["gait"].final_train_acc
    report(9, gap <= 0.02 and ordering,
           f"{task}: |BP - GAIT| test gap {100 * gap:.2f}pp (<= 2pp); "
           f"TP final train {100 * records['tp'].final_train_acc:.1f}% below "
           f"GAIT {100 * records['gait'].final_train_acc:.1f}%")


def test_criterion_10_table_shape_and_documentation():
    # Full-scale accuracy is documented as an optional long job, never
    # asserted here; the gridsearch must reproduce the sweep-table shape.
    tiny = ExperimentConfig(width=16, depth=2, classes=4, dataset="synthetic",
                            teacher_depth=2, train_samples=120, test_samples=40,
                            batch_size=16, epochs=1, seed=0, data_seed=1234)
    etas = [1e-3, 1e-4, 1e-5]
    lambdas = [0.0, 0.1, 10.0, 1000.0]
    result = gridsearch(tiny, etas, lambdas)
    cells = len(result.records) + len(result.failures)
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text() if readme.exists() else ""
    documented = "gridsearch" in text and "full-scale" in text.lower()
    report(10, cells == len(etas) * len(lambdas) and documented,
           f"gridsearch covers {cells} = |etas| x |lambdas| cells; full-scale "
           "run documented in README as an optional long job")

import gradcheck
from fairfilter import autodiff as ad
from fairfilter import hyperfilter as hf
from fairfilter.trainer import tabulate


def test_kink_guard_sees_relus_inside_dense_layers():
    # the heads' ReLUs run inside `ad.dense`; a draw with a classifier hidden
    # pre-activation on its kink must be rejected like any other
    model, records = gradcheck.smooth_case(0, d=16, rank=2, depth=2, n_targets=4)
    x, _, targets = tabulate(records, model.seen_targets)
    _, s_tilde = model.filter_batch(
        x, *hf.ensemble_params(model.hyper, model.seen_indicators, targets))
    w0, b0 = (model.classifier.group.tensors[k] for k in ("W0", "b0"))
    pre = ad.matmul(*s_tilde).data @ w0.data + b0.data
    b0.data[0] -= pre[0, 0]
    assert not gradcheck.draw_is_smooth(model, records)


def test_accepted_draws_are_pinned():
    # the logit guard reads the inputs of the loss nodes; it must accept the
    # same 20 draws the gradient suite has always checked
    assert [gradcheck.smooth_seed(i, d=16, rank=2, depth=2, n_targets=4)
            for i in range(20)] == [0, 1, 2, 7003, 1004, 6005, 4006, 3007, 12008, 5009,
                                    10, 11, 3012, 3013, 1014, 15, 1016, 6017, 4018, 4019]

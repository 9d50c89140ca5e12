"""Classic architectures as configurations of one message-passing layer.

Every preset here is the same unified layer Z_r = (A_r o B_r) Z W_r with
different channel operators and combine/fuse rules. Running them under
one protocol on an easy and a hard graph shows which design choices
actually carry the heterophilous case.
"""

from compatgnn import (PRESETS, RunConfig, generate_graph, generate_splits,
                       make_synth_spec, train_model)


def bench(g, model, splits):
    accs = []
    for sid, split in enumerate(splits):
        cfg = RunConfig(model=model, lr=0.05, weight_decay=5e-4, patience=30,
                        max_epochs=50, nhidden=32, layers=2)
        accs.append(train_model(g, split, cfg, seed=100 + sid).test_accuracy)
    return 100.0 * sum(accs) / len(accs)


def main():
    graphs = {}
    for pattern in ("easy", "hard"):
        spec = make_synth_spec(800, 5, 0.25, pattern, 12.0, seed=3)
        g = generate_graph(spec)
        graphs[pattern] = (g, generate_splits(g, 1, seed=0))

    names = [n for n in PRESETS if n != "mlp"] + ["mlp"]
    print(f"{'model':10s} {'easy h=0.25':>12s} {'hard h=0.25':>12s}")
    for name in names:
        row = [bench(g, name, splits) for g, splits in graphs.values()]
        print(f"{name:10s} {row[0]:11.1f}% {row[1]:11.1f}%")

    print("\nLow homophily alone is not the hard case: with an easy "
          "compatibility\nstructure even plain aggregation separates the "
          "classes, while on the hard\npattern neighborhoods look alike and "
          "the graph-agnostic MLP becomes the\nbaseline to beat. Presets "
          "with ego/neighbor separation or signed channels\ndegrade more "
          "gracefully there.")


if __name__ == "__main__":
    main()

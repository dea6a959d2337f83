"""Write the decoder's denoised expression for a dataset and a checkpoint.

usage: python denoise.py DATA_DIR CHECKPOINT OUT_CSV

Runs the same steps as acceptance criterion 9: default preprocessing, the
auto-radius spatial graph, and `downstream.denoise` with the loaded weights.
The output has one row per spot and one column per kept gene.
"""

import os
import sys

from traced_cli import THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"


def main(data, ckpt, out):
    from topofuse import dataio, downstream, network, preprocess, topology

    ds = dataio.load_dataset(
        os.path.join(data, "tra.csv"),
        os.path.join(data, "coords.csv"),
        mor_path=os.path.join(data, "mor.csv"),
        labels_path=os.path.join(data, "labels.csv"),
    )
    pre = preprocess.preprocess_dataset(ds, dataio.RunConfig())
    params = network.load_checkpoint(ckpt)
    graph = topology.build_spatial_graph(ds.coords, topology.auto_epsilon(ds.coords))
    x_hat = downstream.denoise(params, pre, graph)
    dataio.write_matrix_csv(out, ds.spot_ids, pre.gene_ids, x_hat)


if __name__ == "__main__":
    main(*sys.argv[1:4])

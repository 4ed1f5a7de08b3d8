"""Compile a network to ScaleDeep ISA programs and run the engine.

Shows the full compiler/simulator loop of Sec 4: a tiny CNN is compiled
to one program per CompHeavy tile (following Fig 9's CONV-FP recipe and
Fig 13's code-generation phase), the programs execute on the functional
engine with MEMTRACK synchronization, and the result is checked against
the numpy golden model.

Run:  python examples/isa_engine_demo.py
"""

import numpy as np

from repro.compiler.codegen_dag import compile_dag_forward
from repro.dnn.zoo import tiny_cnn
from repro.functional import ReferenceModel


def main() -> None:
    net = tiny_cnn(num_classes=5, in_size=12)
    model = ReferenceModel(net, seed=3)
    compiled = compile_dag_forward(net, model, rows=2)

    print(
        f"compiled {net.name}: {len(compiled.programs)} tile programs, "
        f"{compiled.instruction_count} instructions total\n"
    )
    # Show the first convolution tile's program, Fig 13 style.
    listing = compiled.programs[0].disassemble().splitlines()
    print("\n".join(listing[:18]))
    if len(listing) > 18:
        print(f"... ({len(listing) - 18} more lines)\n")

    rng = np.random.default_rng(0)
    shape = net.input.output_shape
    image = rng.normal(
        0, 1, (shape.count, shape.height, shape.width)
    ).astype(np.float32)

    golden = model.forward(image)
    engine_out, report = compiled.run(image)

    print(f"engine run: {report.describe()}")
    print(f"golden model output: {np.array2string(golden, precision=4)}")
    print(f"engine output:       {np.array2string(engine_out, precision=4)}")
    err = float(np.abs(engine_out - golden).max())
    print(f"max |engine - golden| = {err:.2e}")
    assert err < 1e-4, "engine diverged from the golden model!"
    print("engine matches the golden model.")

    # STEP4 made concrete: where every tensor lives (first tiles shown).
    print()
    memory_map = compiled.partition.memory_map().splitlines()
    print("\n".join(memory_map[:14]))
    if len(memory_map) > 14:
        print(f"... ({len(memory_map) - 14} more lines)")


if __name__ == "__main__":
    main()

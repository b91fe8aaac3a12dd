"""The CIC application the ``campaigns`` workload explores.

A module-level factory, so farm workers can import it by name.  A
three-stage pipeline with a little arithmetic per firing: enough mini-C
for the ``cir`` interpreter to matter, small enough that one candidate
evaluates in milliseconds.
"""

from repro.hopes import CICApplication, CICTask


def pipeline_app() -> CICApplication:
    app = CICApplication("bench-pipeline")
    app.add_task(CICTask("src", """
        int n;
        int task_go() { write_port(0, n * 7 + 3); n += 1; return 0; }
        """, out_ports=["o"], data_words=32))
    app.add_task(CICTask("mix", """
        int acc;
        int task_go() {
            int v; int i;
            v = read_port(0);
            for (i = 0; i < 6; i += 1) { acc = acc * 3 + v - i; }
            write_port(0, acc % 9973);
            return 0;
        }
        """, in_ports=["i"], out_ports=["o"], data_words=32))
    app.add_task(CICTask("sink", """
        int total;
        int task_go() { total += read_port(0); return 0; }
        """, in_ports=["i"], data_words=32))
    app.connect("src", "o", "mix", "i")
    app.connect("mix", "o", "sink", "i")
    return app

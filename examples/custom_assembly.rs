//! Write a workload in textual assembly, assemble it, and measure how
//! much of its data slack ReDSOC recycles.
//!
//! ```sh
//! cargo run --release --example custom_assembly
//! ```

use redsoc::isa::asm::assemble;
use redsoc::isa::disasm::disassemble;
use redsoc::prelude::*;

const SOURCE: &str = r"
    ; Fixed-point FIR-ish filter over a sample buffer: a serial chain of
    ; narrow adds, shifts and masks per tap -- prime slack-recycling food.
    .words coeffs 3 5 7 9
    .zero  samples 1024
    .zero  out 1024

            mov r0, =samples
            mov r1, =out
            mov r2, #240            ; sample counter
outer:
            ldr r3, [r0]
            ldr r4, [r0, #4]
            ldr r5, [r0, #8]
            ; IIR-style: the filter state r6 carries across iterations,
            ; so this 5-op chain is the loop's serial spine.
            add r6, r6, r4, lsr #2
            add r6, r6, r5, lsr #3
            and r6, r6, #0xFFFF     ; keep it narrow
            eor r7, r6, r3
            orr r6, r7, #1
            str r6, [r1]
            add r0, r0, #4
            add r1, r1, #4
            subs r2, r2, #1
            bne outer
            halt
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = assemble(SOURCE)?;
    println!("assembled {} instructions:", program.len());
    for line in disassemble(&program)?.lines().take(12) {
        println!("{line}");
    }

    let mut interp = Interpreter::new(&program);
    let trace = interp.run(1_000_000)?;
    println!("dynamic instructions: {}", trace.len());

    for (name, core) in [("BIG", CoreConfig::big()), ("SMALL", CoreConfig::small())] {
        let base = simulate(trace.iter().copied(), core.clone())?;
        let red = simulate(
            trace.iter().copied(),
            core.with_sched(SchedulerConfig::redsoc()),
        )?;
        println!(
            "{name:<6} baseline {} cycles → redsoc {} cycles ({:+.1}%, {} recycled)",
            base.cycles,
            red.cycles,
            (red.speedup_over(&base) - 1.0) * 100.0,
            red.recycled_ops,
        );
    }
    Ok(())
}

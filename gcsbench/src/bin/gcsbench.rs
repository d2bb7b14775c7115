//! The untraced benchmark binary: end-to-end figures come from here.

fn main() {
    gcsbench::main_with(false)
}

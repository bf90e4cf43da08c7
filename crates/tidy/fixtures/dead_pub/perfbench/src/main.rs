fn main() {
    lib::from_perfbench();
}

fn main() {
    lib::from_example();
}

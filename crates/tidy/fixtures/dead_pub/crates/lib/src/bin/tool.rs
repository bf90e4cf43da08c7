fn main() {
    lib::from_bin();
}

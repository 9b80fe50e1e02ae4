//! D4 golden fixture: bare float accumulation in merge paths.

fn positive_sum(xs: &[f64]) -> f64 {
    xs.iter().sum() //~ D4
}

fn positive_fold(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |a, b| a + b) //~ D4
}

fn negative_integer_accumulator(xs: &[u64]) -> u64 {
    xs.iter().sum::<u64>()
}

fn positive_merge_type_is_no_exemption(xs: &[f64]) -> f64 {
    OrderedMerge::from_sorted(xs).values().sum::<f64>() //~ D4
}

fn negative_annotated(xs: &[f64]) -> f64 {
    // detlint: allow(D4, inputs pre-sorted by job id upstream)
    xs.iter().sum()
}

#[cfg(test)]
mod tests {
    #[test]
    fn negative_test_code_is_exempt() {
        let total: f64 = [1.0, 2.0].iter().sum();
        drop(total);
    }
}

package com.shape.r12;

import org.junit.Test;

public class GoodTest {
    @Test
    public void runsGood() {
    }
}

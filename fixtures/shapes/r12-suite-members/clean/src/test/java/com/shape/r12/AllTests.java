package com.shape.r12;

import org.junit.runner.RunWith;
import org.junit.runners.Suite;
import org.junit.runners.Suite.SuiteClasses;

@RunWith(Suite.class)
@SuiteClasses({GoodTest.class, OtherTest.class})
public class AllTests {
}

package com.shape.imports;

public class OrderRepository {
}

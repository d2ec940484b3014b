package com.shape.inherit;

public class BaseService {
    private String name;

    public void setName(String name) {
        this.name = name;
    }
}
